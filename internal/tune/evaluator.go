package tune

import (
	"hetsim/internal/experiments"
	"hetsim/internal/memsys"
	"hetsim/internal/migrate"
	"hetsim/internal/telemetry"
	"hetsim/internal/workloads"
)

// Evaluator measures candidates for one Problem. Every measurement
// dispatches through one experiments.Executor, so the search's cache-hit
// rate, remote-dispatch count, and access totals accumulate into a single
// SweepStats, and repeated-neighborhood candidates (same placement at a
// finer rung, the re-measured winner) are served from the cache tiers
// instead of re-simulated. Searchers drive it via Eval; it records the
// search trace as a side effect.
type Evaluator struct {
	p     Problem
	ds    workloads.Dataset
	mem   memsys.Config
	exec  *experiments.Executor
	sp    *telemetry.Span
	trace []TraceEntry
}

func newEvaluator(p Problem, o Options, sp *telemetry.Span) (*Evaluator, error) {
	ds, err := workloads.DatasetByName(p.Dataset)
	if err != nil {
		return nil, err
	}
	var exec *experiments.Executor
	if o.Cache == nil && o.Remote == nil {
		// Plain local tuning shares the process-wide experiments cache, so
		// repeated tunes (and figure runs) in one process dedupe.
		exec = experiments.NewExecutor(o.Workers)
	} else {
		exec = experiments.NewDistributedExecutor(o.Workers, o.Cache, o.Remote)
	}
	return &Evaluator{
		p: p, ds: ds, mem: p.mem(),
		exec: exec.WithLanes(o.Lanes), sp: sp,
	}, nil
}

// FinalShrink is the problem's target fidelity — the run-length divisor of
// the last rung and of every reference measurement.
func (ev *Evaluator) FinalShrink() int { return ev.p.Shrink }

// Seed drives any sampling decision a Searcher makes; equal seeds must
// yield equal searches.
func (ev *Evaluator) Seed() int64 { return ev.p.Seed }

// Eval measures every candidate at the given fidelity, appends one trace
// entry per candidate (initially not kept), and returns the measured
// performances in candidate order plus the trace offset of the first
// entry — searchers pass offset+i to Keep to mark survivors.
func (ev *Evaluator) Eval(rung, shrink int, cands []Params) (perfs []float64, offset int, err error) {
	sp := ev.sp.Child("tune.rung")
	if sp != nil {
		sp.SetAttr("rung", rung)
		sp.SetAttr("shrink", shrink)
		sp.SetAttr("candidates", len(cands))
	}
	perfs, err = ev.measure(sp, shrink, cands)
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	offset = len(ev.trace)
	for i, c := range cands {
		ev.trace = append(ev.trace, TraceEntry{
			Rung: rung, Shrink: shrink, Candidate: c.Spec(), Perf: perfs[i],
		})
	}
	return perfs, offset, nil
}

// Keep marks the trace entry at the given offset as a survivor.
func (ev *Evaluator) Keep(offset int) { ev.trace[offset].Kept = true }

// measure runs candidates without recording trace entries — Eval's engine,
// also used directly for the reference (default/winner) measurements.
func (ev *Evaluator) measure(sp *telemetry.Span, shrink int, cands []Params) ([]float64, error) {
	ev.exec.WithSpan(sp)
	cfgs := make([]experiments.RunConfig, len(cands))
	for i, c := range cands {
		rc, err := ev.config(shrink, c)
		if err != nil {
			return nil, err
		}
		cfgs[i] = rc
	}
	res, err := ev.exec.Map(cfgs)
	if err != nil {
		return nil, err
	}
	perfs := make([]float64, len(res))
	for i := range res {
		perfs[i] = res[i].Perf
	}
	return perfs, nil
}

// config translates one candidate into the RunConfig the simulator (and
// the cache key) sees. Annotated candidates first compute their hints —
// the training profile dispatches through the same executor, so it is
// simulated once per (topology, fidelity) no matter how many hint
// thresholds the search tries.
func (ev *Evaluator) config(shrink int, c Params) (experiments.RunConfig, error) {
	rc := experiments.RunConfig{
		Workload: ev.p.Workload, Dataset: ev.ds, Mem: ev.mem,
		BOCapacityFrac: ev.p.CapacityFrac, Shrink: shrink,
	}
	switch c.Policy {
	case PolicyBWAware:
		rc.Policy = experiments.BWAwarePolicy
	case PolicyInterleave:
		rc.Policy = experiments.InterleavePolicy
	case PolicyRatio:
		rc.Policy = experiments.RatioPolicy
		rc.PercentCO = c.RatioPct
	case PolicyAnnotated:
		hints, err := ev.exec.AnnotatedHintsOn(ev.p.Workload, workloads.Train(), ev.ds, c.HintFrac, shrink, ev.mem)
		if err != nil {
			return experiments.RunConfig{}, err
		}
		rc.Policy = experiments.HintedPolicy
		rc.Hints = hints
	default:
		return experiments.RunConfig{}, c.Validate()
	}
	mig, err := migrate.ParseSpec(c.Migrate)
	if err != nil {
		return experiments.RunConfig{}, err
	}
	rc.Migration = mig
	return rc, nil
}

// oracle measures the static-oracle upper bound at final fidelity:
// profile-guided optimal placement under the problem's capacity
// constraint.
func (ev *Evaluator) oracle(sp *telemetry.Span) (float64, error) {
	ev.exec.WithSpan(sp)
	prof, err := ev.exec.ProfileOn(ev.p.Workload, ev.ds, ev.p.Shrink, ev.mem)
	if err != nil {
		return 0, err
	}
	res, err := ev.exec.Run(experiments.RunConfig{
		Workload: ev.p.Workload, Dataset: ev.ds, Mem: ev.mem,
		Policy: experiments.OraclePolicy, ProfileCounts: prof.PageCounts,
		BOCapacityFrac: ev.p.CapacityFrac, Shrink: ev.p.Shrink,
	})
	if err != nil {
		return 0, err
	}
	return res.Perf, nil
}
