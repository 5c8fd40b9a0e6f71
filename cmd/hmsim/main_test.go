package main

import (
	"strings"
	"testing"

	"hetsim/cmd/internal/cli"
	"hetsim/internal/workloads"
)

// TestValidateFlags covers hmsim's own rules; the shared run options are
// covered by cmd/internal/cli's table test.
func TestValidateFlags(t *testing.T) {
	if err := validateFlags("bw-aware", "train", ""); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	if err := validateFlags("oracle", "shifted", ""); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if errs := cli.Errors(validateFlags("fifo", "huge", "")); len(errs) != 2 {
		t.Errorf("got %d errors, want 2: %v", len(errs), errs)
	}
	// A replay runs through the same assembly as a workload run, so any
	// other policy (and a probe, checked with the shared options) applies.
	if err := validateFlags("bw-aware", "train", "x.trc"); err != nil {
		t.Errorf("-replay with bw-aware rejected: %v", err)
	}
	// Annotations hint allocations, which a flat trace does not carry.
	if errs := cli.Errors(validateFlags("annotated", "train", "x.trc")); len(errs) != 1 {
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
