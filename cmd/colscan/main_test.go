package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// The command pinned end to end: each case runs colscan as a subprocess of
// this test binary (TestColscanHelper stands in for the binary) and compares
// its standard output with a file under testdata.

// helperEnv tells a re-executed test binary to run main instead of tests.
const helperEnv = "COLSCAN_TEST_HELPER"

// TestColscanHelper is not a test: in a subprocess started by runColscan it
// runs main with the arguments after "--".
func TestColscanHelper(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		return
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	os.Args = append([]string{"colscan"}, args...)
	main()
	os.Exit(0)
}

// runColscan runs colscan with the arguments and returns its standard output.
func runColscan(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestColscanHelper$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("colscan %q: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

func TestColscanPinnedOutput(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"lazy.golden", []string{"-records", "4000", "-where", "int0 < 500", "-columns", "str0,map0", "-lazy"}},
		{"shared_batch.golden", []string{"-records", "4000", "-columns", "str0", "-where", "int0 <= 100", "-where", "int0 <= 200"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := runColscan(t, tc.args...); !bytes.Equal(got, want) {
				t.Errorf("colscan %q moved:\n got:\n%s\nwant:\n%s", tc.args, got, want)
			}
		})
	}
}
