package main

import (
	"strings"
	"testing"

	"hetsim/internal/workloads"
)

func TestValidateFlags(t *testing.T) {
	if errs := validateFlags("bw-aware", "train", "", 1, "", "", "", ""); len(errs) != 0 {
		t.Errorf("default config rejected: %v", errs)
	}
	if errs := validateFlags("oracle", "shifted", "gh200", 4, "on", "ewma", "interval=1000,samples=64", ""); len(errs) != 0 {
		t.Errorf("valid config rejected: %v", errs)
	}
	if errs := validateFlags("fifo", "huge", "vax", 0, "epoch=-1", "no-such-policy", "samples=1", ""); len(errs) != 6 {
		// The migrate spec and policy share one resolver, so the pair counts
		// once; every other bad flag reports its own error.
		t.Errorf("got %d errors, want 6: %v", len(errs), errs)
	}
	// A replay runs through the same assembly as a workload run, so the
	// recorder attaches to it like to any other run.
	if errs := validateFlags("bw-aware", "train", "", 1, "", "", "on", "x.trc"); len(errs) != 0 {
		t.Errorf("-probe with -replay rejected: %v", errs)
	}
	// Annotations hint allocations, which a flat trace does not carry.
	if errs := validateFlags("annotated", "train", "", 1, "", "", "", "x.trc"); len(errs) != 1 {
		t.Errorf("-policy annotated with -replay: got %v, want 1 error", errs)
	}
}

// TestSpecErrorsNameOptions: rejection messages must list the valid
// options, so exit-2 failures are self-explanatory.
func TestSpecErrorsNameOptions(t *testing.T) {
	if _, err := policyByName("fifo"); err == nil || !strings.Contains(err.Error(), "bw-aware") {
		t.Errorf("policy error does not list options: %v", err)
	}
	if _, err := workloads.DatasetByName("huge"); err == nil || !strings.Contains(err.Error(), "train") {
		t.Errorf("dataset error does not list options: %v", err)
	}
}
