// Package tune is the policy-autotuning subsystem: given a workload and a
// memory-topology preset, it searches the joint space of placement policy
// (BW-AWARE, INTERLEAVE, fixed ratios, annotated placement with varying
// hint thresholds) and dynamic-migration configuration (internal/migrate
// spec overrides) for the configuration with the best measured
// performance, and reports the winner together with the full search trace
// and how much of the static-oracle gap it recovered.
//
// Every candidate evaluation dispatches through experiments.Executor (and,
// when configured, experiments.NewDistributedExecutor), so the
// singleflight / disk / fleet cache tiers dedupe repeated-neighborhood
// evaluations and a warm cache makes re-tuning nearly free. Search is
// deterministic by construction: candidate sampling is seeded, survivor
// selection breaks ties on the candidate's index in the enumerated space,
// and the executor's determinism guarantee makes every evaluation a pure
// function of its RunConfig — so Run returns byte-identical Reports for
// any worker count, fresh or warm caches, and local or cluster dispatch.
package tune

import (
	"fmt"
	"strconv"
	"strings"

	"hetsim/internal/experiments"
	"hetsim/internal/experiments/pool"
	"hetsim/internal/memsys"
	"hetsim/internal/migrate"
	"hetsim/internal/telemetry"
	"hetsim/internal/topology"
	"hetsim/internal/workloads"
)

// Problem names the tuning target: one workload on one machine under one
// capacity constraint. The zero value of each optional field selects the
// documented default; Normalize applies them.
type Problem struct {
	// Workload is the workload to tune for (required; workloads registry).
	Workload string `json:"workload"`
	// Topology is the memory-topology preset to tune on ("" = the paper's
	// Table 1 system, equivalent to "k40-ddr4").
	Topology string `json:"topology,omitempty"`
	// Dataset names the input set ("" = "train"; see workloads.Variants).
	Dataset string `json:"dataset,omitempty"`
	// CapacityFrac constrains the GPU pool to this fraction of the
	// application footprint, the regime where placement choices matter
	// (0 = the paper's 10% oracle-study constraint). Must be in (0, 1].
	CapacityFrac float64 `json:"capacity,omitempty"`
	// Shrink is the run-length divisor of the final-fidelity evaluations
	// (0 = 1, full fidelity). Successive-halving rungs evaluate at coarser
	// multiples of it.
	Shrink int `json:"shrink,omitempty"`
	// Seed drives candidate sampling when the budget cannot cover the full
	// space (0 = 1). Same seed + budget means the same search, always.
	Seed int64 `json:"seed,omitempty"`
}

// Normalize applies the documented defaults and validates the result,
// returning errors that name the valid options (the CLI and HTTP layers
// surface them verbatim with exit 2 / HTTP 422).
func (p Problem) Normalize() (Problem, error) {
	if p.Dataset == "" {
		p.Dataset = workloads.Train().Name
	}
	if p.CapacityFrac == 0 {
		p.CapacityFrac = 0.10
	}
	if p.Shrink < 1 {
		p.Shrink = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if _, err := workloads.Build(p.Workload, workloads.Train()); err != nil {
		return p, err
	}
	if _, err := topology.Preset(p.Topology); err != nil {
		return p, err
	}
	if _, err := workloads.DatasetByName(p.Dataset); err != nil {
		return p, err
	}
	if p.CapacityFrac < 0 || p.CapacityFrac > 1 {
		return p, fmt.Errorf("tune: capacity must be in (0, 1], got %g", p.CapacityFrac)
	}
	return p, nil
}

// mem resolves the problem's topology selection (Normalize has validated
// it).
func (p Problem) mem() memsys.Config {
	t, _ := topology.Preset(p.Topology)
	return t.MemsysConfig()
}

// Placement policy names of the search space.
const (
	PolicyBWAware    = "bw-aware"
	PolicyInterleave = "interleave"
	PolicyRatio      = "ratio"
	PolicyAnnotated  = "annotated"
)

// Params is one candidate configuration: a placement policy with its
// parameter, plus a migration spec layered on top.
type Params struct {
	// Policy selects the placement policy: "bw-aware", "interleave",
	// "ratio" (with RatioPct), or "annotated" (with HintFrac).
	Policy string `json:"policy"`
	// RatioPct is the percent of pages placed in the CPU pool (ratio
	// policy only).
	RatioPct int `json:"ratio,omitempty"`
	// HintFrac is the hint threshold for annotated placement: the GPU-pool
	// capacity fraction fed to the GetAllocation hint computation
	// (internal/core/hints.go). Smaller values pin fewer, hotter
	// structures.
	HintFrac float64 `json:"hint_frac,omitempty"`
	// Migrate is a migration spec (migrate.ParseSpec): "off", "on", or
	// "key=value,..." overrides of the engine defaults.
	Migrate string `json:"migrate"`
}

// Spec renders the candidate's canonical label, e.g.
// "ratio-25+off" or "annotated-0.1+policy=ewma" — the form Reports,
// traces, and tables use.
func (c Params) Spec() string {
	var b strings.Builder
	b.WriteString(c.Policy)
	switch c.Policy {
	case PolicyRatio:
		fmt.Fprintf(&b, "-%d", c.RatioPct)
	case PolicyAnnotated:
		b.WriteString("-" + strconv.FormatFloat(c.HintFrac, 'g', -1, 64))
	}
	b.WriteString("+")
	if c.Migrate == "" {
		b.WriteString("off")
	} else {
		b.WriteString(c.Migrate)
	}
	return b.String()
}

// Validate rejects parameter combinations the evaluator cannot run.
func (c Params) Validate() error {
	switch c.Policy {
	case PolicyBWAware, PolicyInterleave:
	case PolicyRatio:
		if c.RatioPct < 0 || c.RatioPct > 100 {
			return fmt.Errorf("tune: ratio must be in [0, 100], got %d", c.RatioPct)
		}
	case PolicyAnnotated:
		if c.HintFrac <= 0 || c.HintFrac > 1 {
			return fmt.Errorf("tune: hint fraction must be in (0, 1], got %g", c.HintFrac)
		}
	default:
		return fmt.Errorf("tune: unknown policy %q (have %s %s %s %s)",
			c.Policy, PolicyBWAware, PolicyInterleave, PolicyRatio, PolicyAnnotated)
	}
	if _, err := migrate.ParseSpec(c.Migrate); err != nil {
		return err
	}
	return nil
}

// Options tunes the search itself (as opposed to the Problem, which it
// solves). The zero value selects successive halving with the default
// budget on a private cache.
type Options struct {
	// Strategy names the search schedule ("" = "halving"; see Strategies).
	Strategy string
	// Budget caps candidate evaluations across all rungs (0 = 16).
	// Baseline, oracle, and profiling runs are not counted — they are the
	// fixed overhead every strategy pays.
	Budget int
	// Workers caps concurrent simulations (0 = GOMAXPROCS). Any worker
	// count produces an identical Report.
	Workers int
	// Cache, when non-nil, routes evaluations through a caller-owned
	// result cache (the serving layer passes the daemon's two-tier cache).
	// nil uses the process-wide experiments cache, so repeated local tunes
	// dedupe — unless Remote is set, in which case a private cache is used.
	Cache *pool.Cache[experiments.Result]
	// Remote, when non-nil, offers each cache-missing evaluation to a
	// worker fleet first (experiments.RemoteRunner); Reports are
	// byte-identical with or without it.
	Remote experiments.RemoteRunner
	// Span, when non-nil, scopes the search's telemetry: rung spans with
	// per-candidate sweep children, plus baseline and oracle spans.
	Span *telemetry.Span
}

// Defaults applied by Options normalization; the serving layer reuses
// them so equivalent submissions share one idempotency key.
const (
	DefaultStrategy = "halving"
	DefaultBudget   = 16
)

func (o Options) normalized() (Options, error) {
	if o.Strategy == "" {
		o.Strategy = DefaultStrategy
	}
	if o.Budget == 0 {
		o.Budget = DefaultBudget
	}
	if o.Budget < 1 {
		return o, fmt.Errorf("tune: budget must be >= 1, got %d", o.Budget)
	}
	if !Known(o.Strategy) {
		return o, fmt.Errorf("tune: unknown strategy %q (have %s)", o.Strategy, strings.Join(Strategies(), " "))
	}
	return o, nil
}

// Validate reports whether the (problem, options) pair is runnable,
// without running anything — the HTTP layer uses it for its 422 check
// before enqueuing a job.
func Validate(p Problem, o Options) error {
	if _, err := p.Normalize(); err != nil {
		return err
	}
	_, err := o.normalized()
	return err
}

// Run searches the policy space for the problem and reports the winner,
// the search trace, and the tuned/default/oracle comparison. See the
// package comment for the determinism guarantee.
func Run(p Problem, o Options) (Report, error) {
	p, err := p.Normalize()
	if err != nil {
		return Report{}, err
	}
	o, err = o.normalized()
	if err != nil {
		return Report{}, err
	}

	sp := o.Span.Child("tune")
	defer sp.End()
	if sp != nil {
		sp.SetAttr("workload", p.Workload)
		sp.SetAttr("strategy", o.Strategy)
		sp.SetAttr("budget", o.Budget)
	}

	ev, err := newEvaluator(p, o, sp)
	if err != nil {
		return Report{}, err
	}
	space := Space()
	winIdx, err := search(ev, space, o.Budget, rungsOf(o.Strategy))
	if err != nil {
		return Report{}, err
	}
	winner := space[winIdx]

	// Reference points, all at final fidelity: the default config (the
	// paper's BW-AWARE placement, no migration), the winner, and the
	// static oracle. The winner was already evaluated at final fidelity by
	// the search, so re-measuring it here is a cache hit, not a rerun.
	def := Params{Policy: PolicyBWAware, Migrate: "off"}
	refSp := sp.Child("tune.reference")
	perfs, err := ev.measure(refSp, p.Shrink, []Params{def, winner})
	if err != nil {
		refSp.End()
		return Report{}, err
	}
	oraclePerf, err := ev.oracle(refSp)
	refSp.End()
	if err != nil {
		return Report{}, err
	}
	defPerf, tunedPerf := perfs[0], perfs[1]

	// Coarse-rung noise can promote a final winner that loses to the
	// default at full fidelity; the search must never report a regression,
	// so the default is the floor.
	if defPerf >= tunedPerf {
		winner, tunedPerf = def, defPerf
	}

	// Fraction of the (oracle - default) gap the tuned config recovered.
	// When the oracle has no edge the gap is zero-or-negative and there is
	// nothing to recover: define that as fully recovered (1) rather than
	// dividing by zero (NaN would poison the JSON encoding).
	gap := oraclePerf - defPerf
	recovered := 1.0
	if gap > 0 {
		recovered = (tunedPerf - defPerf) / gap
		if recovered > 1 {
			recovered = 1
		}
	}

	rep := Report{
		Strategy:     o.Strategy,
		Problem:      p,
		Budget:       o.Budget,
		Evals:        len(ev.trace),
		Winner:       winner.Spec(),
		WinnerParams: winner,
		TunedPerf:    tunedPerf,
		DefaultPerf:  defPerf,
		OraclePerf:   oraclePerf,
		GapRecovered: recovered,
		Trace:        ev.trace,
		Sweep:        ev.exec.Stats(),
	}
	if sp != nil {
		sp.SetAttr("winner", rep.Winner)
		sp.SetAttr("evals", rep.Evals)
		sp.SetAttr("cache_hits", rep.Sweep.CacheHits)
	}
	return rep, nil
}
