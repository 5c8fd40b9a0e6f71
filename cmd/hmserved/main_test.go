package main

import (
	"testing"
	"time"

	"hetsim/cmd/internal/cli"
)

func TestDuplicateFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"clean", []string{"-addr", ":8080", "-workers", "4"}, nil},
		{"repeated space form", []string{"-addr", ":8080", "-addr", ":9090"}, []string{"addr"}},
		{"repeated equals form", []string{"-drain=10s", "--drain=20s"}, []string{"drain"}},
		{"mixed forms", []string{"-queue", "8", "-queue=16"}, []string{"queue"}},
		// The scanner doesn't know flag arity, so a value spelled like a
		// flag is (conservatively) reported too. None of hmserved's flag
		// values legitimately start with "-".
		{"value looks like flag name", []string{"-addr", "-addr"}, []string{"addr"}},
		{"after terminator ignored", []string{"-addr", ":8080", "--", "-addr"}, nil},
		{"two distinct dups", []string{"-a", "1", "-a", "2", "-b", "x", "-b", "y"}, []string{"a", "b"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := duplicateFlags(tc.args)
			if len(got) != len(tc.want) {
				t.Fatalf("duplicateFlags(%v) = %v, want %v", tc.args, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("duplicateFlags(%v) = %v, want %v", tc.args, got, tc.want)
				}
			}
		})
	}
}

// TestValidateFlags covers the daemon's own rules; the shared run options
// are covered by cmd/internal/cli's table test.
func TestValidateFlags(t *testing.T) {
	if err := validateFlags(2, 64, 30*time.Second); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	if errs := cli.Errors(validateFlags(0, 0, -time.Second)); len(errs) != 3 {
		t.Errorf("got %d errors, want 3: %v", len(errs), errs)
	}
	if err := validateFlags(1, 1, 0); err != nil {
		t.Errorf("minimal valid config rejected: %v", err)
	}
}
