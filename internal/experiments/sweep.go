package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"

	"hetsim/internal/core"
	"hetsim/internal/experiments/pool"
	"hetsim/internal/gpu"
	"hetsim/internal/memsys"
	"hetsim/internal/metrics"
	"hetsim/internal/migrate"
	"hetsim/internal/obs"
	"hetsim/internal/telemetry"
	"hetsim/internal/vm"
	"hetsim/internal/workloads"
)

// sweepCache is the process-wide result cache shared by every Executor
// built with NewExecutor: the LOCAL/INTERLEAVE/BW-AWARE baselines and the
// profiling runs that recur across Figures 2-11 are simulated once per
// process no matter how many figures request them.
var sweepCache = pool.NewCache[Result]()

// defaultExec backs the package-level helpers (Profile, AnnotatedHints) so
// their simulations land in — and are served from — the shared cache.
var defaultExec = NewExecutor(0)

// RemoteRunner executes one canonical config somewhere else — on a worker
// fleet, typically — and reports ok=false to decline (fleet empty, worker
// failure after retries), in which case the executor runs the config
// locally. key is the config's canonical content hash (ConfigKey), which
// distributed implementations use for routing so equal configs land on the
// same worker and hit its cache. Implementations must be safe for
// concurrent use and must return results bit-identical to Run's; the
// cluster layer (internal/cluster) verifies this end to end. The span is
// the dispatch's telemetry scope (nil when telemetry is off); it must
// never influence the result.
type RemoteRunner func(sp *telemetry.Span, key string, rc RunConfig) (Result, bool)

// Executor dispatches RunConfigs through the worker-pool sweep executor
// (package pool) and accumulates sweep statistics across Map calls, so a
// multi-stage figure (profile pass, then policy runs) reports one total.
//
// Determinism guarantee: Run is a deterministic function of its RunConfig
// (seeded RNGs, a discrete-event engine with total event ordering, no
// shared mutable state), and pool.Map places every result at the index of
// its input config. Therefore Executor.Map returns bit-identical Result
// slices for any worker count, and cached results are bit-identical to
// freshly simulated ones.
type Executor struct {
	p     pool.Pool[RunConfig, Result]
	span  *telemetry.Span // parent scope for Map calls; nil when untraced
	lanes int             // default RunConfig.Lanes applied by WithLanes
	mu    sync.Mutex
	st    metrics.SweepStats
}

// NewExecutor returns an executor running up to workers concurrent
// simulations (0 means GOMAXPROCS) against the process-wide result cache.
func NewExecutor(workers int) *Executor {
	return newExecutor(workers, sweepCache, nil)
}

// NewIsolatedExecutor is NewExecutor with a private, empty result cache.
// Tests and bit-match verifications use it so a prior run cannot serve
// their configs from the shared cache.
func NewIsolatedExecutor(workers int) *Executor {
	return newExecutor(workers, pool.NewCache[Result](), nil)
}

// NewResultCache returns an empty private result cache for
// NewDistributedExecutor and Options.Cache. The serving layer owns one per
// daemon and layers its persistent disk backend under it
// (pool.Cache.SetBackend).
func NewResultCache() *pool.Cache[Result] {
	return pool.NewCache[Result]()
}

// NewDistributedExecutor is NewExecutor against a caller-owned cache, with
// a RemoteRunner layered between the cache tiers and local execution: each
// cacheable config that misses the cache is offered to remote first and
// simulated locally only if remote declines. A nil cache uses a private one; a nil
// remote degrades to a purely local executor.
func NewDistributedExecutor(workers int, cache *pool.Cache[Result], remote RemoteRunner) *Executor {
	if cache == nil {
		cache = pool.NewCache[Result]()
	}
	return newExecutor(workers, cache, remote)
}

// ConfigKey reports the canonical content hash identifying rc's result —
// the key under which executors cache it. ok is false for configs that
// cannot be cached (e.g. trace-recording runs).
func ConfigKey(rc RunConfig) (key string, ok bool) {
	return canonicalKey(rc)
}

func newExecutor(workers int, cache *pool.Cache[Result], remote RemoteRunner) *Executor {
	e := &Executor{p: pool.Pool[RunConfig, Result]{
		Run:     runTraced,
		Key:     canonicalKey,
		Cache:   cache,
		Workers: workers,
	}}
	if remote != nil {
		e.p.Offload = func(sp *telemetry.Span, key string, rc RunConfig) (Result, bool) {
			return remote(sp, key, rc)
		}
	}
	return e
}

// WithSpan sets the telemetry parent for subsequent Map calls: each sweep
// dispatched through the executor becomes a "sweep" child span of sp, with
// the per-config lifecycle stages under it. Returns e for chaining; a nil
// span leaves the executor untraced.
func (e *Executor) WithSpan(sp *telemetry.Span) *Executor {
	e.span = sp
	return e
}

// WithLanes makes subsequent dispatches simulate with n parallel event
// lanes (RunConfig.Lanes) unless a config carries its own count. Lanes are
// not part of the cache identity — laned results are byte-identical to
// sequential ones — so executors with different lane counts share cache
// entries. Returns e for chaining; n < 2 is a no-op.
func (e *Executor) WithLanes(n int) *Executor {
	if n < 2 {
		return e
	}
	e.lanes = n
	e.p.Run = func(sp *telemetry.Span, rc RunConfig) (Result, error) {
		if rc.Lanes == 0 {
			rc.Lanes = n
		}
		return runTraced(sp, rc)
	}
	return e
}

// WithProbe attaches a flight recorder to every run this executor
// dispatches: each config gets its own obs.Probe built from cfg, and when
// its run completes sink receives the run's label (workload.policy.key8)
// and final series snapshot. Probed configs are uncacheable, so every
// config executes locally — no cache hits, no fleet offload; WithProbe is
// for watching dynamics, not for throughput. sink is called from worker
// goroutines and must be safe for concurrent use; a nil sink records and
// discards. Call after WithLanes (which replaces the run function this
// wraps). Returns e for chaining.
func (e *Executor) WithProbe(cfg obs.Config, sink func(label string, snap obs.Snapshot)) *Executor {
	run := e.p.Run
	e.p.Run = func(sp *telemetry.Span, rc RunConfig) (Result, error) {
		p, err := obs.New(cfg)
		if err != nil {
			return Result{}, err
		}
		p.Label = probeLabel(rc)
		res, err := run(sp, rc.WithProbe(p))
		if err == nil && sink != nil {
			sink(p.Label, p.Snapshot())
		}
		return res, err
	}
	e.p.Key = func(RunConfig) (string, bool) { return "", false }
	return e
}

// probeLabel names one probed run's series — the workload, the placement
// policy, and the first 8 hex digits of the config's canonical key so
// sweep arms differing only in parameters stay distinguishable.
func probeLabel(rc RunConfig) string {
	label := rc.Workload + "." + policyLabel(rc)
	if key, ok := canonicalKey(rc); ok && len(key) >= 8 {
		label += "." + key[:8]
	}
	return label
}

// Map executes every config and returns results in input order; see the
// Executor determinism guarantee. Results may be shared with other cache
// users and must be treated as immutable.
func (e *Executor) Map(cfgs []RunConfig) ([]Result, error) {
	sweep := e.span.Child("sweep")
	if sweep != nil {
		sweep.SetAttr("configs", len(cfgs))
	}
	res, st, err := e.p.MapSpan(sweep, cfgs)
	sweep.End()
	var accesses, migrated uint64
	fallbacks := 0
	for i := range res {
		if st.Cached[i] {
			continue
		}
		accesses += res[i].Accesses
		migrated += res[i].Mem.MigratedPages
		// A run that asked for multiple lanes (explicitly or via
		// WithLanes) but had to execute sequentially is a lane fallback —
		// surfaced here so sweeps report it instead of silently ignoring
		// the request.
		req := cfgs[i].Lanes
		if req == 0 {
			req = e.lanes
		}
		if req > 1 && LaneFallbackReason(cfgs[i]) != "" {
			fallbacks++
		}
	}
	e.mu.Lock()
	e.st.Add(metrics.SweepStats{
		Runs:          st.Executed,
		CacheHits:     st.CacheHits,
		Remote:        st.Offloaded,
		Errors:        st.Errors,
		Workers:       st.Workers,
		Accesses:      accesses,
		LaneFallbacks: fallbacks,
		MigratedPages: migrated,
		Wall:          st.Wall,
	})
	e.mu.Unlock()
	return res, err
}

// Run executes one config through the executor (and its cache).
func (e *Executor) Run(rc RunConfig) (Result, error) {
	res, err := e.Map([]RunConfig{rc})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// Profile runs the workload's profiling pass (unconstrained LOCAL, §4.2)
// on the paper's Table 1 memory system through the executor, so repeated
// profiles of one workload are simulated once.
func (e *Executor) Profile(workload string, ds workloads.Dataset, shrink int) (Result, error) {
	return e.ProfileOn(workload, ds, shrink, memsys.Table1Config())
}

// ProfileOn is Profile against an explicit memory configuration (topology
// presets): page hotness is measured post-cache, so it depends on the
// memory system being profiled.
func (e *Executor) ProfileOn(workload string, ds workloads.Dataset, shrink int, mem memsys.Config) (Result, error) {
	return e.Run(profileConfig(workload, ds, shrink, mem))
}

// Stats reports the cumulative sweep statistics of every Map call made
// through this executor.
func (e *Executor) Stats() metrics.SweepStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.st
}

// profileConfig is the canonical profiling RunConfig; figures build their
// profile stages from it so their cache keys coincide with Profile's.
// (Passing memsys.Table1Config() yields the same canonical key as the
// zero-Mem form — canonicalKey reads the config through resolved.)
func profileConfig(workload string, ds workloads.Dataset, shrink int, mem memsys.Config) RunConfig {
	return RunConfig{
		Workload: workload,
		Dataset:  ds,
		Policy:   LocalPolicy,
		Mem:      mem,
		Shrink:   shrink,
	}
}

// RunAll executes configs through a fresh executor sharing the
// process-wide cache and reports the sweep statistics — the programmatic
// entry point for custom parameter sweeps.
func RunAll(cfgs []RunConfig, workers int) ([]Result, metrics.SweepStats, error) {
	e := NewExecutor(workers)
	res, err := e.Map(cfgs)
	return res, e.Stats(), err
}

// canonicalRC is the cache identity of a RunConfig: every field Run reads,
// after RunConfig.resolved applies Run's defaults, with fields the selected
// policy ignores zeroed and, for a LOCAL run confined to its local pool,
// the pools it never touches dropped (see canonicalKey). Two RunConfigs
// with equal canonicalRC drive Run through an identical simulation.
// RunConfig.Lanes is deliberately absent: laned runs produce
// byte-identical Results (the lane determinism suite asserts it), so a
// result computed at any lane count satisfies every lane count.
type canonicalRC struct {
	Workload string
	Dataset  workloads.Dataset

	Policy        PolicyKind
	PercentCO     int         // RatioPolicy only
	Hints         []core.Hint // HintedPolicy only
	ProfileCounts []uint64    // OraclePolicy only

	BOCapacityFrac float64
	Mem            memsys.Config
	GPU            gpu.Config // with TLB and PageSize folded in, as resolved does
	PageSize       uint64

	CPUTrafficGBps float64
	Migration      *migrate.Config
	EagerPlacement bool
	Shrink         int
	Seed           int64
}

// canonicalKey hashes the canonical form of rc. ok is false for configs
// that must not be cached (runs recording or replaying a trace, or
// carrying a flight recorder, whose side effect is the point). Probe
// configuration is therefore never part of a cache key: a probed run
// bypasses every cache tier instead of polluting the identity of its
// unprobed twin.
func canonicalKey(rc RunConfig) (string, bool) {
	if rc.traceWriter != nil || rc.probe != nil || rc.replay != nil {
		return "", false
	}
	rc = rc.resolved() // explicit and implicit defaults share a key
	c := canonicalRC{
		Workload:       rc.Workload,
		Dataset:        rc.Dataset,
		Policy:         rc.Policy,
		BOCapacityFrac: rc.BOCapacityFrac,
		Mem:            rc.Mem,
		GPU:            rc.GPU,
		PageSize:       rc.PageSize,
		CPUTrafficGBps: rc.CPUTrafficGBps,
		Migration:      rc.Migration,
		EagerPlacement: rc.EagerPlacement,
		Shrink:         rc.Shrink,
		Seed:           rc.Seed,
	}
	// Only the selected policy's parameters are part of the identity:
	// Run ignores the others, so configs differing only there must share
	// a key (e.g. a BW-AWARE run carrying leftover ProfileCounts).
	switch rc.Policy {
	case RatioPolicy:
		c.PercentCO = rc.PercentCO
	case HintedPolicy:
		c.Hints = rc.Hints
	case OraclePolicy:
		c.ProfileCounts = rc.ProfileCounts
	case LocalPolicy:
		// LOCAL maps every page into its local pool. When that pool is
		// uncapped it never spills, and without migration or CPU
		// co-traffic nothing else maps a page or sends an access to
		// another pool, so only the local pool is part of the identity:
		// the others' channels exist but stay idle, and their counters
		// and energy in the Result stay zero.
		local := localZone(SBITFor(rc.Mem))
		if rc.Migration == nil && rc.CPUTrafficGBps == 0 && zoneBudgets(rc, 0)[local].CapacityPages == vm.Unlimited {
			c.Mem.Zones = nil
			for _, z := range rc.Mem.Zones {
				if z.Zone == local {
					c.Mem.Zones = append(c.Mem.Zones, z)
				}
			}
		}
	}
	b, err := json.Marshal(c)
	if err != nil {
		return "", false // unhashable config: run it uncached
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), true
}
