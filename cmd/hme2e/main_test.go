package main

import "testing"

// A refused row whose scenario name is misspelled would never run.
func TestRefusedRowsBelongToScenarios(t *testing.T) {
	for _, r := range refused {
		if scenarios[r.scenario] == nil {
			t.Errorf("refused row %q names unknown scenario %q", r.cmd, r.scenario)
		}
	}
}
