package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestGoldenOutputs renders every figure at Shrink 8 as CSV, and the bfs
// tuning report at Shrink 16, through hmexp itself and requires the bytes
// committed under testdata/: any change to what the simulator computes
// shows up here without a second checkout to compare against.
func TestGoldenOutputs(t *testing.T) {
	for _, g := range []struct{ args, file string }{
		{"-shrink 8 -csv all", "testdata/all-shrink8.csv"},
		{"-tune -shrink 16 bfs", "testdata/tune-bfs-shrink16.txt"},
	} {
		t.Run(g.file, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(g.file)
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "HMEXP_ARGS="+g.args)
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("hmexp %s: %v", g.args, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("hmexp %s printed %d bytes that differ from the %d in %s. A change that moves "+
					"output bytes on purpose regenerates both testdata files together with "+
					"experiments_full.txt (README, Reproduction notes), e.g. "+
					"go run ./cmd/hmexp %s > cmd/hmexp/%s", g.args, len(got), len(want), g.file, g.args, g.file)
			}
		})
	}
}
