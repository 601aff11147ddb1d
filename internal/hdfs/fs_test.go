package hdfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"colmr/internal/sim"
)

func testCluster() sim.ClusterConfig {
	c := sim.DefaultCluster()
	c.Nodes = 8
	c.BlockSize = 1 << 16 // 64 KB blocks keep multi-block tests small
	c.TransferUnit = 1 << 12
	return c
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New(testCluster(), 1)
	data := make([]byte, 200_000) // spans several 64 KB blocks
	rnd := rand.New(rand.NewSource(7))
	rnd.Read(data)
	if err := fs.WriteFile("/a/b/file", data, 0); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/a/b/file")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round-trip mismatch")
	}
	if fs.TotalSize("/a/b/file") != int64(len(data)) {
		t.Errorf("size = %d, want %d", fs.TotalSize("/a/b/file"), len(data))
	}
}

func TestCreateErrors(t *testing.T) {
	fs := New(testCluster(), 1)
	if err := fs.WriteFile("/f", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/f", 0); err == nil {
		t.Error("creating an existing file should fail")
	}
	fs.MkdirAll("/d")
	if _, err := fs.Create("/d", 0); err == nil {
		t.Error("creating over a directory should fail")
	}
	if _, err := fs.Open("/missing", 0); err == nil {
		t.Error("opening a missing file should fail")
	}
}

func TestWriterClosedRejectsWrites(t *testing.T) {
	fs := New(testCluster(), 1)
	w, err := fs.Create("/f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after close should fail")
	}
}

func TestReplicationFactor(t *testing.T) {
	fs := New(testCluster(), 1)
	if err := fs.WriteFile("/f", make([]byte, 300_000), 2); err != nil {
		t.Fatal(err)
	}
	locs, err := fs.BlockLocations("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 5 { // ceil(300000 / 65536)
		t.Fatalf("blocks = %d, want 5", len(locs))
	}
	for i, nodes := range locs {
		if len(nodes) != 3 {
			t.Errorf("block %d has %d replicas, want 3", i, len(nodes))
		}
		seen := map[NodeID]bool{}
		for _, n := range nodes {
			if seen[n] {
				t.Errorf("block %d has duplicate replica on node %d", i, n)
			}
			seen[n] = true
		}
		if nodes[0] != 2 {
			t.Errorf("block %d first replica on node %d, want writer node 2", i, nodes[0])
		}
	}
}

func TestSequentialScanChargesLinearBytesAndOneSeek(t *testing.T) {
	fs := New(testCluster(), 1)
	const size = 100_000
	if err := fs.WriteFile("/f", make([]byte, size), 0); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/f", 0)
	if err != nil {
		t.Fatal(err)
	}
	var st sim.IOStats
	r.SetStats(&st)
	buf := make([]byte, 1000)
	for {
		if _, err := r.Read(buf); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if st.LogicalBytes != size {
		t.Errorf("logical = %d, want %d", st.LogicalBytes, size)
	}
	if st.LocalBytes != size {
		t.Errorf("charged local = %d, want %d (contiguous scan, local replica)", st.LocalBytes, size)
	}
	if st.RemoteBytes != 0 {
		t.Errorf("remote = %d, want 0", st.RemoteBytes)
	}
	if st.Seeks != 0 {
		t.Errorf("seeks = %d, want 0 for a sequential scan", st.Seeks)
	}
	if st.Opens != 1 {
		t.Errorf("opens = %d, want 1", st.Opens)
	}
}

func TestScatteredReadsChargeTransferUnits(t *testing.T) {
	cfg := testCluster()
	fs := New(cfg, 1)
	const size = 1 << 18 // 4 blocks
	if err := fs.WriteFile("/f", make([]byte, size), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := fs.Open("/f", 0)
	var st sim.IOStats
	r.SetStats(&st)
	// Read 16 bytes at the start of each transfer unit, skipping every
	// other unit: each read costs a full transfer unit plus a seek.
	tu := cfg.TransferUnit
	n := 0
	for off := int64(0); off < size; off += 2 * tu {
		if _, err := r.ReadAt(make([]byte, 16), off); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if st.LogicalBytes != int64(16*n) {
		t.Errorf("logical = %d, want %d", st.LogicalBytes, 16*n)
	}
	wantCharged := int64(n) * tu
	if st.LocalBytes != wantCharged {
		t.Errorf("charged = %d, want %d (one transfer unit per scattered read)", st.LocalBytes, wantCharged)
	}
	if st.Seeks != int64(n-1) {
		t.Errorf("seeks = %d, want %d (first read is an open)", st.Seeks, n-1)
	}
	if st.Opens != 1 {
		t.Errorf("opens = %d, want 1", st.Opens)
	}
}

func TestRereadWithinChargedRunIsFree(t *testing.T) {
	fs := New(testCluster(), 1)
	if err := fs.WriteFile("/f", make([]byte, 10_000), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := fs.Open("/f", 0)
	var st sim.IOStats
	r.SetStats(&st)
	if _, err := r.ReadAt(make([]byte, 5000), 0); err != nil {
		t.Fatal(err)
	}
	charged := st.LocalBytes
	if _, err := r.ReadAt(make([]byte, 1000), 100); err != nil {
		t.Fatal(err)
	}
	if st.LocalBytes != charged {
		t.Errorf("re-read within charged run cost %d extra bytes", st.LocalBytes-charged)
	}
}

func TestRemoteReadAccounting(t *testing.T) {
	fs := New(testCluster(), 1)
	if err := fs.WriteFile("/f", make([]byte, 8192), 3); err != nil {
		t.Fatal(err)
	}
	locs, _ := fs.BlockLocations("/f")
	replicaSet := map[NodeID]bool{}
	for _, n := range locs[0] {
		replicaSet[n] = true
	}
	var farNode NodeID = -1
	for n := 0; n < fs.cfg.Nodes; n++ {
		if !replicaSet[NodeID(n)] {
			farNode = NodeID(n)
			break
		}
	}
	if farNode < 0 {
		t.Skip("every node holds a replica; enlarge the cluster")
	}
	r, _ := fs.Open("/f", farNode)
	var st sim.IOStats
	r.SetStats(&st)
	if _, err := r.ReadAt(make([]byte, 8192), 0); err != nil {
		t.Fatal(err)
	}
	if st.RemoteBytes == 0 || st.LocalBytes != 0 {
		t.Errorf("far node read: local=%d remote=%d, want all remote", st.LocalBytes, st.RemoteBytes)
	}
}

func TestReadAtEOF(t *testing.T) {
	fs := New(testCluster(), 1)
	if err := fs.WriteFile("/f", []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := fs.Open("/f", 0)
	buf := make([]byte, 10)
	n, err := r.ReadAt(buf, 0)
	if n != 5 || err != io.EOF {
		t.Errorf("ReadAt = (%d, %v), want (5, EOF)", n, err)
	}
	if _, err := r.ReadAt(buf, 5); err != io.EOF {
		t.Errorf("read at EOF = %v, want EOF", err)
	}
	if _, err := r.ReadAt(buf, -1); err == nil {
		t.Error("negative offset should fail")
	}
}

func TestSeekWhence(t *testing.T) {
	fs := New(testCluster(), 1)
	if err := fs.WriteFile("/f", []byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := fs.Open("/f", 0)
	if pos, _ := r.Seek(4, io.SeekStart); pos != 4 {
		t.Errorf("SeekStart pos = %d", pos)
	}
	if pos, _ := r.Seek(2, io.SeekCurrent); pos != 6 {
		t.Errorf("SeekCurrent pos = %d", pos)
	}
	if pos, _ := r.Seek(-1, io.SeekEnd); pos != 9 {
		t.Errorf("SeekEnd pos = %d", pos)
	}
	buf := make([]byte, 1)
	if _, err := r.Read(buf); err != nil || buf[0] != '9' {
		t.Errorf("read after seek = %q, %v", buf, err)
	}
	if _, err := r.Seek(-100, io.SeekStart); err == nil {
		t.Error("negative seek should fail")
	}
	if _, err := r.Seek(0, 42); err == nil {
		t.Error("bad whence should fail")
	}
}

func TestListStatRemove(t *testing.T) {
	fs := New(testCluster(), 1)
	for _, p := range []string{"/d/x", "/d/y", "/d/sub/z"} {
		if err := fs.WriteFile(p, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := fs.List("/d")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, fi := range infos {
		names = append(names, fi.Name())
	}
	want := []string{"sub", "x", "y"}
	if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Errorf("List = %v, want %v", names, want)
	}
	if fi, _ := fs.Stat("/d/sub"); !fi.IsDir {
		t.Error("/d/sub should be a directory")
	}
	if err := fs.Remove("/d/x"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d/x") {
		t.Error("/d/x still exists after Remove")
	}
	if err := fs.RemoveAll("/d"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d/sub/z") || fs.Exists("/d") {
		t.Error("RemoveAll left entries behind")
	}
	if _, err := fs.List("/missing"); err == nil {
		t.Error("listing a missing directory should fail")
	}
	if _, err := fs.List("/"); err != nil {
		t.Errorf("listing root: %v", err)
	}
}

func TestTreeSize(t *testing.T) {
	fs := New(testCluster(), 1)
	fs.WriteFile("/t/a", make([]byte, 100), 0)
	fs.WriteFile("/t/s0/b", make([]byte, 200), 0)
	if got := fs.TreeSize("/t"); got != 300 {
		t.Errorf("TreeSize = %d, want 300", got)
	}
}

func TestKillNodeFallsBackToReplica(t *testing.T) {
	fs := New(testCluster(), 1)
	if err := fs.WriteFile("/f", make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	locs, _ := fs.BlockLocations("/f")
	primary := locs[0][0]
	fs.KillNode(primary)
	r, _ := fs.Open("/f", primary)
	var st sim.IOStats
	r.SetStats(&st)
	if _, err := r.ReadAt(make([]byte, 4096), 0); err != nil {
		t.Fatalf("read after node death: %v", err)
	}
	if st.RemoteBytes == 0 {
		t.Error("read from dead local node should be charged remote")
	}
}

func TestKillAllReplicasFailsRead(t *testing.T) {
	fs := New(testCluster(), 1)
	if err := fs.WriteFile("/f", make([]byte, 16), 0); err != nil {
		t.Fatal(err)
	}
	locs, _ := fs.BlockLocations("/f")
	for _, n := range locs[0] {
		fs.KillNode(n)
	}
	r, _ := fs.Open("/f", AnyNode)
	var st sim.IOStats
	r.SetStats(&st)
	if _, err := r.ReadAt(make([]byte, 16), 0); err == nil {
		t.Error("read with all replicas dead should fail")
	}
}

func TestReReplicate(t *testing.T) {
	fs := New(testCluster(), 1)
	if err := fs.WriteFile("/f", make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	locs, _ := fs.BlockLocations("/f")
	fs.KillNode(locs[0][0])
	created := fs.ReReplicate()
	if created == 0 {
		t.Fatal("ReReplicate created no replicas")
	}
	locs, _ = fs.BlockLocations("/f")
	if len(locs[0]) != 3 {
		t.Errorf("replicas after re-replication = %d, want 3", len(locs[0]))
	}
	for _, n := range locs[0] {
		if n == locs[0][0] && fs.dead[n] {
			t.Error("dead node still listed as replica")
		}
	}
}

func TestHostsFor(t *testing.T) {
	fs := New(testCluster(), 1)
	fs.SetPlacementPolicy(NewColumnPlacementPolicy())
	for _, f := range []string{"/d/s0/c1", "/d/s0/c2", "/d/s0/c3"} {
		if err := fs.WriteFile(f, make([]byte, 100_000), AnyNode); err != nil {
			t.Fatal(err)
		}
	}
	hosts := fs.HostsFor([]string{"/d/s0/c1", "/d/s0/c2", "/d/s0/c3"})
	if len(hosts) != 3 {
		t.Fatalf("co-located hosts = %v, want 3 nodes", hosts)
	}
}

func TestReadFileRoundTripProperty(t *testing.T) {
	fs := New(testCluster(), 42)
	i := 0
	f := func(data []byte) bool {
		i++
		p := "/prop/f" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10))
		if fs.Exists(p) {
			fs.Remove(p)
		}
		if err := fs.WriteFile(p, data, 0); err != nil {
			return false
		}
		got, err := fs.ReadFile(p)
		if err != nil {
			return len(data) == 0 // empty files read 0 bytes fine; ReadFile handles size 0
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestFailNth: the armed call — and only it — fails with ErrInjected; a
// failed Write keeps the first half of its bytes, every other failed call
// changes nothing; WriteFile counts once for itself and once per call it
// makes; disarming only counts.
func TestFailNth(t *testing.T) {
	fs := New(testCluster(), 1)
	calls := fs.FailNth(0)
	if err := fs.WriteFile("/d/a", []byte("abcd"), 0); err != nil {
		t.Fatal(err)
	}
	if n := calls(); n != 4 {
		t.Fatalf("WriteFile made %d mutating calls, want 4 (itself, Create, Write, Close)", n)
	}
	cases := []struct {
		k          int
		exists     bool
		data       string
		closedFile bool
	}{
		{1, false, "", false},    // WriteFile itself
		{2, false, "", false},    // Create
		{3, true, "ab", false},   // Write: torn
		{4, true, "abcd", false}, // Close: the bytes are there, the file is not closed
		{5, true, "abcd", true},  // past the calls made: nothing fails
		{0, true, "abcd", true},  // disarmed
		{-1, true, "abcd", true}, // disarmed
	}
	for _, c := range cases {
		_ = fs.RemoveAll("/e")
		fs.FailNth(c.k)
		err := fs.WriteFile("/e/f", []byte("abcd"), 0)
		fs.FailNth(0)
		wantErr := c.k >= 1 && c.k <= 4
		if (err != nil) != wantErr || (err != nil && !errors.Is(err, ErrInjected)) {
			t.Errorf("k=%d: WriteFile returned %v", c.k, err)
		}
		if fs.Exists("/e/f") != c.exists {
			t.Errorf("k=%d: file exists %v, want %v", c.k, fs.Exists("/e/f"), c.exists)
			continue
		}
		if !c.exists {
			continue
		}
		got, _ := fs.ReadFile("/e/f")
		_, closed := fs.Generation("/e/f")
		if string(got) != c.data || closed != c.closedFile {
			t.Errorf("k=%d: file holds %q closed=%v, want %q closed=%v", c.k, got, closed, c.data, c.closedFile)
		}
	}

	fs.FailNth(1)
	if err := fs.Remove("/d/a"); !errors.Is(err, ErrInjected) || !fs.Exists("/d/a") {
		t.Errorf("a failed Remove returned %v and left the file: %v", err, fs.Exists("/d/a"))
	}
	if err := fs.Remove("/d/a"); err != nil || fs.Exists("/d/a") {
		t.Errorf("the Remove after the failed one returned %v", err)
	}
	if n := calls(); n != 2 {
		t.Errorf("counted %d mutating calls since arming, want 2", n)
	}
}
