// Package sim provides the deterministic cluster cost model used to price
// storage-format experiments.
//
// The reproduction strategy (see DESIGN.md) separates *work* from *time*:
// format implementations execute for real on real bytes and accumulate
// counters (bytes read locally/remotely, seeks, bytes deserialized per type,
// records materialized, bytes decompressed per codec). This package converts
// those counters into simulated wall-clock seconds using a cost model
// calibrated against the paper's cluster (VLDB 2011, Section 6.1) and its
// Figure 8 deserialization-rate measurements. Pricing is pure arithmetic, so
// experiment output is identical on every host machine.
//
// IOStats, CPUStats and TaskStats each list their counters once, in a
// counters method that Add and Scale range over. Adding a counter means
// adding a field and its entry in that list; a test fails by name for any
// int64 field the list leaves out.
package sim

// ClusterConfig describes the modeled Hadoop cluster. The defaults mirror
// the paper's experimental setup: 40 worker nodes, each with 8 cores, 6 map
// slots, 1 reduce slot, four SATA data disks, connected by 1 Gbit ethernet.
type ClusterConfig struct {
	// Nodes is the number of worker (datanode + tasktracker) machines.
	Nodes int
	// SlotsPerNode is the number of concurrent map tasks per node.
	SlotsPerNode int
	// ReducersPerNode is the number of concurrent reduce tasks per node.
	ReducersPerNode int
	// DisksPerNode is the number of data disks a datanode spreads blocks
	// across.
	DisksPerNode int
	// DiskBandwidth is the sequential read bandwidth of one disk in
	// bytes/second. SATA 1.0 disks of the paper's era sustain roughly
	// 75 MB/s, but effective per-stream throughput under Hadoop (JVM,
	// checksumming, filesystem overhead) is lower; DefaultCluster uses a
	// calibrated effective value.
	DiskBandwidth float64
	// SeekTime is the cost in seconds of one disk seek (arm movement plus
	// rotational latency).
	SeekTime float64
	// NetBandwidth is the usable point-to-point network bandwidth in
	// bytes/second (1 Gbit ethernet minus protocol overhead).
	NetBandwidth float64
	// TransferUnit is the I/O transfer size in bytes
	// (Hadoop's io.file.buffer.size; the paper uses 128 KB). Disk reads
	// are charged in multiples of this unit.
	TransferUnit int64
	// BlockSize is the HDFS block size in bytes (64 MB in the paper).
	BlockSize int64
	// Replication is the HDFS replication factor.
	Replication int
	// JobOverhead is fixed per-job scheduling/startup/teardown time in
	// seconds (JVM spawning, heartbeats). The paper's total-time minus
	// map-time gap for jobs with tiny map output is 50-60 s.
	JobOverhead float64
}

// DefaultCluster returns the configuration of the paper's 40-node cluster
// (Section 6.1) with calibrated effective rates.
func DefaultCluster() ClusterConfig {
	return ClusterConfig{
		Nodes:           40,
		SlotsPerNode:    6,
		ReducersPerNode: 1,
		DisksPerNode:    4,
		DiskBandwidth:   75 * MB,
		SeekTime:        0.006,
		// Effective 1 Gbit ethernet under the many-concurrent-flow,
		// incast-prone traffic of a full map wave (nominal 119 MB/s).
		NetBandwidth: 40 * MB,
		TransferUnit: 128 * KB,
		BlockSize:    64 * MB,
		Replication:  3,
		JobOverhead:  52,
	}
}

// SingleNode returns a one-node configuration used for the paper's
// single-machine microbenchmarks (Figure 7, Figure 9, Figure 11). Scans in
// those experiments are single-threaded, so SlotsPerNode is 1.
func SingleNode() ClusterConfig {
	c := DefaultCluster()
	c.Nodes = 1
	c.SlotsPerNode = 1
	c.ReducersPerNode = 1
	return c
}

// Byte-size constants.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
	TB = 1 << 40
)

// MapSlots returns the total number of map slots in the cluster.
func (c ClusterConfig) MapSlots() int { return c.Nodes * c.SlotsPerNode }

// PerSlotDiskBandwidth returns the share of aggregate node disk bandwidth
// available to one map slot, in bytes/second. Hadoop of the paper's era did
// not overlap I/O with computation within a task, and concurrent slots
// statically share the node's disks.
func (c ClusterConfig) PerSlotDiskBandwidth() float64 {
	slots := c.SlotsPerNode
	if slots < 1 {
		slots = 1
	}
	agg := c.DiskBandwidth * float64(c.DisksPerNode)
	per := agg / float64(slots)
	// A single stream cannot exceed one disk's bandwidth.
	if per > c.DiskBandwidth {
		per = c.DiskBandwidth
	}
	return per
}

// PerSlotNetBandwidth returns the share of node network bandwidth available
// to one map slot for remote block reads.
func (c ClusterConfig) PerSlotNetBandwidth() float64 {
	slots := c.SlotsPerNode
	if slots < 1 {
		slots = 1
	}
	return c.NetBandwidth / float64(slots)
}
