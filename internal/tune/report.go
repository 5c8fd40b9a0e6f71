package tune

import (
	"fmt"
	"strings"

	"hetsim/internal/metrics"
)

// TraceEntry is one candidate evaluation of the search: which rung it ran
// in, at what fidelity, what was measured, and whether the candidate
// survived into the next rung (or won, for the final one).
type TraceEntry struct {
	Rung      int     `json:"rung"`
	Shrink    int     `json:"shrink"`
	Candidate string  `json:"candidate"`
	Perf      float64 `json:"perf"`
	Kept      bool    `json:"kept,omitempty"`
}

// Report is the outcome of one tuning search. Every JSON-visible field is
// a deterministic function of (Problem, Strategy, Budget, Seed), so the
// marshaled report — and the Text rendering — is byte-identical for any
// worker count, fresh or warm caches, and local or cluster dispatch. Sweep carries wall-clock timings and cache-hit counts for
// operators; it is deliberately excluded from the JSON wire form (the
// serving layer reports it through job views and /metrics instead).
type Report struct {
	Strategy string  `json:"strategy"`
	Problem  Problem `json:"problem"`
	Budget   int     `json:"budget"`
	// Evals is the number of candidate evaluations performed
	// (len(Trace)); reference and profiling runs are not counted.
	Evals int `json:"evals"`
	// Winner is the canonical spec of the best configuration found; it is
	// never worse than the default (BW-AWARE, no migration) — the search
	// floor.
	Winner       string `json:"winner"`
	WinnerParams Params `json:"winner_params"`
	// TunedPerf / DefaultPerf / OraclePerf are accesses-per-kcycle at
	// final fidelity for the winner, the default config, and the static
	// oracle.
	TunedPerf   float64 `json:"tuned_perf"`
	DefaultPerf float64 `json:"default_perf"`
	OraclePerf  float64 `json:"oracle_perf"`
	// GapRecovered is the fraction of the (oracle - default) gap the
	// winner recovered, clamped to [0, 1]; 1 when the oracle has no edge.
	GapRecovered float64      `json:"gap_recovered"`
	Trace        []TraceEntry `json:"trace"`

	// Sweep summarizes the search's simulation effort (runs, cache hits,
	// remote dispatches, wall time). Excluded from JSON: see above.
	Sweep metrics.SweepStats `json:"-"`
}

// Topology names the machine the report was tuned on (the paper's system
// when the problem left it unset).
func (r Report) Topology() string {
	if r.Problem.Topology == "" {
		return "k40-ddr4"
	}
	return r.Problem.Topology
}

// Text renders the report for terminals. Like the JSON form it contains
// no timings, so equal reports render byte-identically everywhere.
func (r Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tune %s on %s (dataset %s, capacity %g, shrink %d): strategy %s, budget %d, %d evals\n",
		r.Problem.Workload, r.Topology(), r.Problem.Dataset, r.Problem.CapacityFrac,
		r.Problem.Shrink, r.Strategy, r.Budget, r.Evals)
	fmt.Fprintf(&b, "  winner        %s\n", r.Winner)
	fmt.Fprintf(&b, "  tuned         %.2f acc/kcycle (%.3fx default)\n", r.TunedPerf, ratio(r.TunedPerf, r.DefaultPerf))
	fmt.Fprintf(&b, "  default       %.2f acc/kcycle (bw-aware+off)\n", r.DefaultPerf)
	fmt.Fprintf(&b, "  oracle        %.2f acc/kcycle (%.3fx default)\n", r.OraclePerf, ratio(r.OraclePerf, r.DefaultPerf))
	fmt.Fprintf(&b, "  gap recovered %.1f%%\n", r.GapRecovered*100)
	fmt.Fprintf(&b, "  trace:\n")
	for _, t := range r.Trace {
		kept := ""
		if t.Kept {
			kept = "  kept"
		}
		fmt.Fprintf(&b, "    rung %d shrink %-6d %-36s %10.2f%s\n", t.Rung, t.Shrink, t.Candidate, t.Perf, kept)
	}
	return b.String()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}
