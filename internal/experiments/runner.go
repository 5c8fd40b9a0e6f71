// Package experiments reproduces every table and figure of the paper's
// evaluation: it composes the workload generators, placement policies, GPU
// model, and memory system into single simulation runs (Run) and into the
// parameter sweeps behind each figure (Fig2a ... Fig11, Table1).
//
// Every figure sweep builds its config list up front and dispatches it
// through an Executor — a worker-pool runner (internal/experiments/pool)
// with a process-wide result cache keyed by the canonical hash of each
// RunConfig. Results are deterministic for any worker count, and baseline
// runs shared between figures are simulated only once per process.
package experiments

import (
	"fmt"
	"math"

	"hetsim/internal/core"
	"hetsim/internal/gpu"
	"hetsim/internal/gpurt"
	"hetsim/internal/memsys"
	"hetsim/internal/migrate"
	"hetsim/internal/obs"
	"hetsim/internal/sim"
	"hetsim/internal/telemetry"
	"hetsim/internal/tlb"
	"hetsim/internal/trace"
	"hetsim/internal/vm"
	"hetsim/internal/workloads"
)

// PolicyKind selects the placement policy for a run.
type PolicyKind int

// Policies under evaluation.
const (
	LocalPolicy PolicyKind = iota
	InterleavePolicy
	BWAwarePolicy
	RatioPolicy  // fixed xC-yB split; set PercentCO
	OraclePolicy // requires ProfileCounts
	HintedPolicy // requires Hints
)

func (k PolicyKind) String() string {
	switch k {
	case LocalPolicy:
		return "LOCAL"
	case InterleavePolicy:
		return "INTERLEAVE"
	case BWAwarePolicy:
		return "BW-AWARE"
	case RatioPolicy:
		return "RATIO"
	case OraclePolicy:
		return "ORACLE"
	case HintedPolicy:
		return "ANNOTATED"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// RunConfig describes one simulation run.
type RunConfig struct {
	Workload string
	Dataset  workloads.Dataset

	Policy    PolicyKind
	PercentCO int         // RatioPolicy only
	Hints     []core.Hint // HintedPolicy: one per structure, program order
	// ProfileCounts is the per-page hotness profile for OraclePolicy
	// (obtained from a prior profiling Run on the same workload+dataset).
	ProfileCounts []uint64

	// BOCapacityFrac caps the GPU-attached pool (zone 0) at this fraction
	// of the workload footprint; 0 or >= 1e9 means unconstrained. The
	// paper's capacity studies use 0.1 (Figures 8, 10, 11) and a 0.1..1.0
	// sweep (Figure 4). Pools may also declare absolute capacities in the
	// memory config (topology presets do); the tighter bound wins.
	BOCapacityFrac float64

	// Mem is the memory-system description; the zero value means
	// memsys.Table1Config(). Topology presets (internal/topology,
	// Options.Topology, hmexp/hmsim -topology) compile to this field.
	Mem memsys.Config
	GPU gpu.Config // zero value means gpu.Table1Config()

	// PageSize overrides the 4 kB OS page size (must be a power of two, no
	// smaller than Mem.LineBytes).
	// Larger pages coarsen placement granularity — the page-size ablation.
	PageSize uint64

	// TLB, when non-nil, enables per-SM translation caches with walk
	// stalls (disabled in the paper's substrate; used by the FigTLB
	// page-size tradeoff extension).
	TLB *tlb.Config

	// CPUTrafficGBps injects background CPU traffic into the CO pool at
	// this rate (the FigCPU contention extension). 0 disables.
	CPUTrafficGBps float64

	// Migration, when non-nil, enables the dynamic page-migration engine
	// (the paper's §5.5 future work) with the given configuration.
	Migration *migrate.Config

	// EagerPlacement places pages at Malloc time instead of first touch.
	// First touch (the default) matches Linux demand paging and is what
	// the figures use; eager mode exists for the placement-moment
	// ablation bench.
	EagerPlacement bool

	// Shrink divides simulated phases for fast tests (1 = full length).
	Shrink int
	Seed   int64

	// Lanes is ignored: it was the count of parallel event lanes, which
	// were removed. The benchmark harness under bench/ still sets it, so
	// the field stays until that harness changes; it is not part of the
	// cache identity (canonicalRC).
	Lanes int

	// traceWriter, when set (via RecordTrace), records the post-L1 access
	// stream of the run.
	traceWriter *trace.Writer

	// probe, when set (via WithProbe), records epoch-sampled time series
	// during the run. Like traceWriter it is deliberately excluded from
	// the canonical cache key — see canonicalKey — and like the telemetry
	// span it never changes the Result: probed and unprobed runs are
	// byte-identical, the series leaves out-of-band through the probe.
	probe *obs.Probe

	// replay, when set (via RunTrace), replaces the workload generator
	// with a recorded access stream. Such configs are never cached.
	replay *traceReplay
}

// traceReplay is a recorded access stream and the shape it is re-executed
// in; see RunTrace.
type traceReplay struct {
	events []trace.Event
	cfg    trace.ReplayConfig
}

// resolved returns rc with every default Run applies filled in: the
// paper's Table 1 memory system and GPU, the TLB and page size folded into
// the GPU config, 4 kB pages, seed 42, Shrink 1, an out-of-range
// BOCapacityFrac as 0 (unconstrained), and the counter classifier for an
// empty Migration.Policy. Run, Validate and the canonical cache key all
// read a config through it, so each default lives here once and an
// explicit default simulates — and hashes — like the implicit one.
func (rc RunConfig) resolved() RunConfig {
	if len(rc.Mem.Zones) == 0 {
		rc.Mem = memsys.Table1Config()
	}
	if rc.GPU.SMs == 0 {
		rc.GPU = gpu.Table1Config()
	}
	if rc.TLB != nil {
		rc.GPU.TLB = rc.TLB
	}
	if rc.PageSize == 0 {
		rc.PageSize = vm.DefaultPageSize
	}
	rc.GPU.PageSize = rc.PageSize
	if rc.BOCapacityFrac <= 0 || rc.BOCapacityFrac >= 1e9 {
		rc.BOCapacityFrac = 0
	}
	if rc.Migration != nil && rc.Migration.Policy == "" {
		m := *rc.Migration
		m.Policy = migrate.PolicyCounter
		rc.Migration = &m
	}
	if rc.Shrink < 1 {
		rc.Shrink = 1
	}
	if rc.Seed == 0 {
		rc.Seed = 42
	}
	return rc
}

// Validate reports why Run would refuse rc, read with Run's defaults
// applied: a malformed memory system or GPU, a page size that is not a
// power of two between the cache line and vm.MaxPageSize, an unknown
// workload or policy, a ratio outside [0,100], an ORACLE run without a
// profile or with an empty one, a migration config migrate.New would
// refuse, CPU traffic that is negative or not finite, a hint outside the
// placement hints, or a dataset workloads.Dataset.Validate refuses. Run
// calls it first; the daemon calls it before queueing a job, so a
// malformed request is refused rather than queued to fail.
func (rc RunConfig) Validate() error {
	rc = rc.resolved()
	// Checked before the zone budgets size the address space from rc.Mem
	// and before vm.NewSpace and gpu.New would panic on a malformed page
	// size or GPU.
	if err := rc.Mem.Validate(); err != nil {
		return err
	}
	if err := rc.GPU.Validate(); err != nil {
		return err
	}
	if rc.PageSize&(rc.PageSize-1) != 0 {
		return fmt.Errorf("experiments: PageSize %d is not a power of two", rc.PageSize)
	}
	if rc.PageSize < uint64(rc.Mem.LineBytes) {
		return fmt.Errorf("experiments: PageSize %d is smaller than the %d-byte cache line", rc.PageSize, rc.Mem.LineBytes)
	}
	if rc.PageSize > vm.MaxPageSize {
		return fmt.Errorf("experiments: PageSize %d is larger than the %d-byte maximum", rc.PageSize, vm.MaxPageSize)
	}
	if rc.replay == nil && !workloads.Known(rc.Workload) {
		return fmt.Errorf("experiments: unknown workload %q (have %v)", rc.Workload, workloads.AllNames())
	}
	switch rc.Policy {
	case LocalPolicy, InterleavePolicy, BWAwarePolicy, HintedPolicy:
	case RatioPolicy:
		if rc.PercentCO < 0 || rc.PercentCO > 100 {
			return fmt.Errorf("experiments: RatioPolicy PercentCO %d outside [0,100]", rc.PercentCO)
		}
	case OraclePolicy:
		if len(rc.ProfileCounts) == 0 {
			return fmt.Errorf("experiments: OraclePolicy requires a non-empty ProfileCounts")
		}
	default:
		return fmt.Errorf("experiments: unknown policy %v", rc.Policy)
	}
	if rc.Migration != nil {
		if err := rc.Migration.Validate(); err != nil {
			return err
		}
	}
	if err := rc.Dataset.Validate(); err != nil {
		return err
	}
	if !(rc.CPUTrafficGBps >= 0) || math.IsInf(rc.CPUTrafficGBps, 1) {
		return fmt.Errorf("experiments: CPUTrafficGBps %v is not a finite rate >= 0", rc.CPUTrafficGBps)
	}
	for i, h := range rc.Hints {
		if h > core.HintBW {
			return fmt.Errorf("experiments: hint %d is %d, not a placement hint (%d..%d)", i, h, core.HintNone, core.HintBW)
		}
	}
	return nil
}

// WithProbe returns a copy of rc with the flight recorder attached. The
// probed run bypasses every cache tier (a cached result would have no
// series to replay), so it always executes.
func (rc RunConfig) WithProbe(p *obs.Probe) RunConfig {
	rc.probe = p
	return rc
}

// Result summarizes one run.
type Result struct {
	Workload string
	Policy   string
	Cycles   sim.Time
	// Perf is throughput in coalesced accesses per kilocycle; all figures
	// report it normalized within the figure, as the paper does.
	Perf        float64
	Accesses    uint64
	BOServed    float64 // fraction of post-L1 accesses served by pool 0 (GPU-attached)
	PageCounts  []uint64
	Allocations []gpurt.Allocation
	Mem         memsys.Stats
	EnergyNJ    float64 // total DRAM access energy
	Migration   migrate.Stats
	Place       core.PlaceStats
	GPUStats    gpu.Stats
	Footprint   uint64
}

// SBITFor derives the System Bandwidth Information Table from a memory
// configuration — the discovery step the paper assigns to ACPI or the GPU
// runtime.
func SBITFor(cfg memsys.Config) core.SBIT {
	var t core.SBIT
	for _, z := range cfg.Zones {
		t.ZoneInfos = append(t.ZoneInfos, core.ZoneInfo{
			Zone:          z.Zone,
			Name:          z.Name,
			BandwidthGBps: cfg.ZoneBandwidthGBps(z.Zone),
			LatencyCycles: int(z.ExtraLatency),
			CapacityBytes: z.CapacityBytes,
		})
	}
	return t
}

// Run executes one workload under one placement policy and returns the
// measured result. A config Validate refuses is an error, never a panic.
func Run(rc RunConfig) (Result, error) {
	return runTraced(nil, rc)
}

// source is where a run's access stream comes from: a workload generator
// (Run) or a recorded trace (RunTrace). It is the only part of a run the
// two assemble differently. footprint sizes the zones, accesses is the
// numerator of Result.Perf, and load allocates the stream's memory through
// rt and returns its warp programs plus the allocations Result reports.
type source struct {
	name      string
	footprint uint64
	accesses  uint64
	load      func(rt *gpurt.Runtime) ([]gpu.WarpProgram, []gpurt.Allocation, error)
}

// sourceOf opens rc's access stream; rc must be resolved.
func sourceOf(rc RunConfig) (source, error) {
	if r := rc.replay; r != nil {
		// A flat trace is one anonymous allocation spanning its address
		// range, so gpurt.Fault places every page the stream touches.
		var maxVA uint64
		for _, e := range r.events {
			maxVA = max(maxVA, e.VA)
		}
		footprint := (maxVA/rc.PageSize + 1) * rc.PageSize
		return source{
			name:      "trace",
			footprint: footprint,
			accesses:  uint64(len(r.events)),
			load: func(rt *gpurt.Runtime) ([]gpu.WarpProgram, []gpurt.Allocation, error) {
				if _, err := rt.Malloc("trace", footprint, core.HintNone); err != nil {
					return nil, nil, err
				}
				progs, err := trace.Programs(r.events, r.cfg)
				return progs, nil, err
			},
		}, nil
	}
	spec, err := workloads.Build(rc.Workload, rc.Dataset)
	if err != nil {
		return source{}, err
	}
	spec.Shrink(rc.Shrink)
	return source{
		name:      spec.Name,
		footprint: spec.Footprint(),
		accesses:  spec.TotalAccesses(),
		load: func(rt *gpurt.Runtime) ([]gpu.WarpProgram, []gpurt.Allocation, error) {
			var hints []core.Hint
			if rc.Policy == HintedPolicy {
				if len(rc.Hints) != len(spec.Structures) {
					return nil, nil, fmt.Errorf("experiments: %d hints for %d structures", len(rc.Hints), len(spec.Structures))
				}
				hints = rc.Hints
			}
			allocs, err := spec.Allocate(rt, hints)
			if err != nil {
				return nil, nil, err
			}
			return spec.Programs(allocs), allocs, nil
		},
	}, nil
}

// runTraced is Run with a telemetry scope: after the simulation completes,
// the engine/memory/GPU phase counters that already exist for the paper's
// metrics are snapshotted onto sp as attributes. The hot event loop is
// untouched — no sampling, no per-event work — so a nil span (telemetry
// off) is exactly Run, and the Result is bit-identical either way. It is
// the only place a simulation is assembled: workload runs and trace
// replays differ only in their source.
func runTraced(sp *telemetry.Span, rc RunConfig) (Result, error) {
	if err := rc.Validate(); err != nil {
		return Result{}, err
	}
	rc = rc.resolved()
	src, err := sourceOf(rc)
	if err != nil {
		return Result{}, err
	}
	sbit := SBITFor(rc.Mem)
	space := vm.NewSpace(rc.PageSize, zoneBudgets(rc, src.footprint))
	placer := core.NewPlacer(space, buildPolicy(rc, sbit, space), sbit)
	var rt *gpurt.Runtime
	if rc.EagerPlacement {
		rt = gpurt.New(space, placer)
	} else {
		rt = gpurt.NewFirstTouch(space, placer)
	}
	progs, allocs, err := src.load(rt)
	if err != nil {
		return Result{}, err
	}

	world := sim.NewWorld(1, memsys.LaneLookahead(rc.Mem))
	eng := world.Engine()
	// Page-table commits are deferred to window edges: a faulting access
	// retries one hop later, after the edge that commits its mapping, and
	// every figure's bytes depend on that schedule. Eager Malloc-time
	// mappings above committed directly — deferral starts here, before any
	// simulated fault.
	space.SetDeferred(true)
	world.OnWindow(space.FlushPending)
	mem, err := memsys.New(eng, space, rc.Mem)
	if err != nil {
		return Result{}, err
	}
	if rt.FirstTouch() {
		mem.FaultHandler = rt.Fault
	}
	var gpuMem gpu.Memory = mem
	if rc.traceWriter != nil {
		gpuMem = &trace.Recorder{Mem: mem, W: rc.traceWriter}
	}
	g := gpu.New(eng, gpuMem, rc.GPU)
	if rc.CPUTrafficGBps > 0 {
		bg := memsys.NewBackgroundTraffic(mem, vm.ZoneCO, rc.CPUTrafficGBps, rc.Seed)
		bg.Active = func() bool { return g.Outstanding() > 0 }
		bg.Start()
	}
	var mig *migrate.Engine
	if rc.Migration != nil {
		mig, err = migrate.New(eng, mem, *rc.Migration)
		if err != nil {
			return Result{}, err
		}
		mig.Active = func() bool { return g.Outstanding() > 0 }
		mig.Start()
	}
	if rc.probe != nil {
		// After every other window hook (notably space.FlushPending), so
		// samples observe flushed page-table state at each barrier.
		rc.probe.Attach(world, mem, mig, g)
	}
	g.Launch(progs)
	cycles := g.Run()
	if cycles == 0 {
		cycles = 1
	}

	st := mem.Stats()
	var migStats migrate.Stats
	if mig != nil {
		migStats = mig.Stats()
	}
	if sp != nil {
		sp.SetAttr("workload", src.name)
		sp.SetAttr("policy", policyLabel(rc))
		if mig != nil {
			sp.SetAttr("migrate.policy", mig.PolicyName())
			sp.SetAttr("migrate.epochs", migStats.Epochs)
			sp.SetAttr("migrate.promotions", migStats.Promotions)
			sp.SetAttr("migrate.demotions", migStats.Demotions)
			sp.SetAttr("migrate.skipped", migStats.Skipped)
			sp.SetAttr("migrate.async_writebacks", migStats.AsyncWriteBacks)
			sp.SetAttr("migrate.writeback_stalls", migStats.WriteBackStalls)
			sp.SetAttr("migrate.pages", st.MigratedPages)
		}
		attachSimTelemetry(sp, world, mem, g, cycles)
	}
	res := Result{
		Migration:   migStats,
		EnergyNJ:    mem.TotalEnergyNJ(),
		Workload:    src.name,
		Policy:      policyLabel(rc),
		Cycles:      cycles,
		Perf:        float64(src.accesses) / float64(cycles) * 1000,
		Accesses:    st.Accesses,
		BOServed:    mem.ZoneServiceFraction(vm.ZoneBO),
		PageCounts:  mem.PageCounts(),
		Allocations: allocs,
		Mem:         st,
		Place:       placer.Stats(),
		GPUStats:    g.Stats(),
		Footprint:   src.footprint,
	}
	// The run is over and every counter is read: its hardware and program
	// slab serve the next run. A probe took its last sample inside
	// g.Run, so it reads none of them again.
	workloads.ReleasePrograms(progs)
	g.Release()
	mem.Release()
	space.Release()
	world.Release()
	return res, nil
}

// attachSimTelemetry snapshots the simulator's phase counters — all of
// which the engine, memory system, and GPU already maintain for the
// paper's metrics — onto the run's span: events processed, per-channel
// bandwidth (data-bus) utilization, MSHR high-water marks, and the
// warp-stall breakdown. Called once after the run completes, so the
// allocation-free event loop never sees telemetry.
func attachSimTelemetry(sp *telemetry.Span, w *sim.World, mem *memsys.System, g *gpu.GPU, cycles sim.Time) {
	sp.SetAttr("sim.events", w.Fired())
	sp.SetAttr("sim.cycles", uint64(cycles))

	st := mem.Stats()
	sp.SetAttr("sim.accesses", st.Accesses)
	sp.SetAttr("mem.avg_latency_cycles", st.AvgLatency())

	gs := g.Stats()
	sp.SetAttr("gpu.warps", gs.WarpsCompleted)
	sp.SetAttr("gpu.compute_cycles", uint64(gs.ComputeCycles))
	sp.SetAttr("gpu.l1_hit_rate", gs.L1HitRate())

	// Warp-stall breakdown: the three sources that delay a memory phase
	// beyond raw DRAM service — TLB walks, MSHR file exhaustion, refresh.
	var mshrFull, refresh uint64
	peak := 0
	for _, z := range mem.Config().Zones {
		for ch := 0; ch < z.Channels; ch++ {
			_, ms, ds := mem.SliceStats(z.Zone, ch)
			mshrFull += ms.FullStall
			refresh += ds.RefreshStalls
			if ms.PeakUsed > peak {
				peak = ms.PeakUsed
			}
			if cycles > 0 {
				sp.SetAttr(fmt.Sprintf("bw.%s.ch%d_util", z.Name, ch),
					float64(ds.BusyCycles)/float64(cycles))
			}
		}
	}
	sp.SetAttr("stall.tlb_walks", gs.TLBMisses)
	sp.SetAttr("stall.mshr_full", mshrFull)
	sp.SetAttr("stall.dram_refresh", refresh)
	sp.SetAttr("mshr.peak", peak)
}

func policyLabel(rc RunConfig) string {
	if rc.Policy == RatioPolicy {
		return fmt.Sprintf("%dC-%dB", rc.PercentCO, 100-rc.PercentCO)
	}
	return rc.Policy.String()
}

// buildPolicy constructs rc's placement policy (rc must be resolved and
// valid). The oracle fills pools fastest-first, each to its bandwidth
// share and at most to the capacity space was sized with, so its
// assignment respects both the footprint-fraction cap on zone 0 and any
// absolute pool capacities.
func buildPolicy(rc RunConfig, sbit core.SBIT, space *vm.Space) core.Policy {
	byBW := sbit.ZonesByBandwidth()
	fast, slow := byBW[0], byBW[len(byBW)-1]
	switch rc.Policy {
	case LocalPolicy:
		return core.Local{Zone: localZone(sbit)}
	case InterleavePolicy:
		return core.NewInterleave(len(sbit.ZoneInfos))
	case BWAwarePolicy:
		return core.NewBWAware(sbit, rc.Seed)
	case RatioPolicy:
		// The x:y split is inherently two-valued; in an N-pool topology it
		// splits between the fastest and slowest pools.
		return core.NewRatioZones(rc.PercentCO, rc.Seed, fast, slow)
	case OraclePolicy:
		shares := make([]float64, len(byBW))
		caps := make([]int, len(byBW))
		for i, z := range byBW {
			shares[i] = sbit.Share(z)
			caps[i] = space.ZoneCapacity(z)
		}
		assign := core.BuildOracleAssignmentZones(rc.ProfileCounts, byBW, shares, caps)
		return core.Oracle{Assignment: assign, Default: slow}
	default: // HintedPolicy; Validate refuses every other kind
		return core.NewHintedZones(core.NewBWAware(sbit, rc.Seed), fast, slow)
	}
}

// localZone is the pool LOCAL places every page in: the highest-bandwidth
// pool in the table (ties go to the pool configured first).
func localZone(sbit core.SBIT) vm.ZoneID { return sbit.ZonesByBandwidth()[0] }

// zoneBudgets sizes the vm zones of a run of rc (resolved) over a source
// of footprint bytes: each pool's page budget is its absolute capacity in
// the memory config (topology presets declare some), and the GPU-attached
// pool (zone 0) is further capped at BOCapacityFrac of the footprint (the
// paper's capacity studies); the tighter bound wins. vm.Unlimited marks an
// uncapped pool. A BOCapacityFrac cap is at least one page, so a zero
// footprint tells a capped pool 0 from an uncapped one without sizing it.
// runTraced builds the address space from it, and the cache identity and
// Fig4's reuse of unreached caps read the same budgets.
func zoneBudgets(rc RunConfig, footprint uint64) []vm.ZoneConfig {
	maxZone := 0
	for _, z := range rc.Mem.Zones {
		maxZone = max(maxZone, int(z.Zone))
	}
	zcfgs := make([]vm.ZoneConfig, maxZone+1)
	for i := range zcfgs {
		zcfgs[i] = vm.ZoneConfig{Name: fmt.Sprintf("zone%d", i), CapacityPages: vm.Unlimited}
	}
	for _, z := range rc.Mem.Zones {
		zcfgs[z.Zone].Name = z.Name
		if z.CapacityBytes > 0 {
			zcfgs[z.Zone].CapacityPages = min(zcfgs[z.Zone].CapacityPages, max(int(z.CapacityBytes/rc.PageSize), 1))
		}
	}
	if rc.BOCapacityFrac > 0 {
		footPages := vm.PagesFor(footprint, rc.PageSize)
		boPages := max(int(rc.BOCapacityFrac*float64(footPages)+0.5), 1)
		zcfgs[vm.ZoneBO].CapacityPages = min(zcfgs[vm.ZoneBO].CapacityPages, boPages)
	}
	return zcfgs
}

// capUnreached reports whether rc, which caps pool 0 (BOCapacityFrac),
// simulates exactly like its uncapped twin — rc with BOCapacityFrac 0 —
// given the twin's result: the twin placed no more pages in pool 0 than
// rc's budget allows. core.Placer reads a pool's capacity only when
// mapping into it fails with vm.ErrZoneFull, and without migration a page
// never leaves the pool it was placed in, so up to the first such failure
// the two runs are the same simulation — and rc's first failure would need
// the twin to place more than the budget there. The rule excludes ORACLE,
// whose assignment reads the capacities, and migration, which reads them
// and moves pages; probed runs are never deduplicated, so callers must not
// apply it to a probed sweep.
func capUnreached(rc RunConfig, twin Result) bool {
	if rc.Policy == OraclePolicy || rc.Migration != nil {
		return false
	}
	budget := zoneBudgets(rc.resolved(), twin.Footprint)[vm.ZoneBO].CapacityPages
	return twin.Place.PagesPerZone[vm.ZoneBO] <= budget
}

// Profile runs the workload once, unconstrained under LOCAL placement, and
// returns the result carrying page counts and allocations — the paper's
// first simulation pass for the oracle (§4.2) and the training run for
// annotations (§5). Profiles dispatch through the shared sweep executor,
// so repeated profiles of one workload are simulated once per process.
func Profile(workload string, ds workloads.Dataset, shrink int) (Result, error) {
	return defaultExec.Profile(workload, ds, shrink)
}
