package experiments

import (
	"errors"
	"fmt"
	"strings"

	"hetsim/internal/core"
	"hetsim/internal/experiments/pool"
	"hetsim/internal/gpu"
	"hetsim/internal/memsys"
	"hetsim/internal/metrics"
	"hetsim/internal/migrate"
	"hetsim/internal/obs"
	"hetsim/internal/telemetry"
	"hetsim/internal/topology"
	"hetsim/internal/vm"
	"hetsim/internal/workloads"
)

// Options tunes an experiment reproduction.
type Options struct {
	// Workloads to include; nil means the paper's 19-benchmark set.
	Workloads []string
	// Shrink divides simulated work for quick runs (1 = full fidelity).
	Shrink int
	// Dataset defaults to the canonical training set.
	Dataset workloads.Dataset
	// Workers caps concurrent simulations per sweep; 0 means GOMAXPROCS.
	// Any worker count produces identical results (see Executor).
	Workers int
	// Cache, when non-nil, routes this reproduction's simulations through
	// a private result cache instead of the process-wide one. The serving
	// layer (internal/serve) sets it to the daemon's cache, which layers a
	// persistent disk backend under the in-process map; figure output is
	// bit-identical either way.
	Cache *pool.Cache[Result]
	// Remote, when non-nil, offers each cache-missing config to a remote
	// execution layer (a worker fleet, see internal/cluster) before
	// simulating locally. Figure output is bit-identical with or without
	// it — remote results are required to match local ones, and the
	// cluster layer asserts so.
	Remote RemoteRunner
	// Span, when non-nil, is the telemetry parent for this reproduction:
	// every sweep the figure dispatches becomes a child span of it (see
	// internal/telemetry). Purely observational — results are identical
	// with or without it.
	Span *telemetry.Span
	// Topology selects a named memory topology preset (internal/topology:
	// "k40-ddr4", "gh200", "cxl-expansion") for every simulation in this
	// reproduction; "" means the paper's Table 1 system. "k40-ddr4" is
	// byte-identical to "" — same hardware, same cache keys. Unknown names
	// fail figure construction. Figures that study a fixed hardware point
	// (table1's companion fig1, figzones' three-technology demo, the
	// all-preset sweeps of figtopo and figmigtopo, figdyn's cxl-expansion
	// chain) ignore it.
	Topology string
	// Migrate configures the dynamic page-migration engine for the figures
	// that run it (figmig, figphase, figmigtopo, figdyn) as a migrate spec
	// string (see migrate.ParseSpec): "" or "on" means
	// migrate.DefaultConfig, "k=v,..." overrides it. Invalid specs fail
	// figure construction. Figures without a migration arm ignore it.
	Migrate string
	// MigratePolicy overrides the classifier of the Migrate spec
	// ("counter" or "ewma"); "" keeps the spec's choice. figmigtopo and
	// figdyn, which compare both classifiers side by side, ignore it and
	// need a spec valid for each (CheckFigure).
	MigratePolicy string

	// Probe, when set, attaches a flight recorder (internal/obs) to every
	// run of the figure's sweeps; ProbeSink receives each run's label and
	// final series (it must be safe for concurrent use). Probed runs are
	// uncacheable, so the figure executes every config — results stay
	// byte-identical, only the caching changes. Figures that need probes
	// for their own content (figdyn) manage recorders themselves and
	// ignore these fields.
	Probe     *obs.Config
	ProbeSink func(label string, snap obs.Snapshot)
}

func (o Options) workloadList() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return workloads.Names()
}

func (o Options) shrink() int {
	if o.Shrink < 1 {
		return 1
	}
	return o.Shrink
}

func (o Options) dataset() workloads.Dataset {
	if o.Dataset.Name == "" {
		return workloads.Train()
	}
	return o.Dataset
}

// mem resolves the Topology selection to the base memory configuration.
// The empty selection is k40-ddr4, whose config equals
// memsys.Table1Config(), so its canonical cache keys coincide with the
// zero-Mem RunConfig default. Figures must Clone() before mutating the
// result (sweep knobs scale zone bandwidths in place).
func (o Options) mem() (memsys.Config, error) {
	t, err := topology.Preset(o.Topology)
	if err != nil {
		return memsys.Config{}, err
	}
	return t.MemsysConfig(), nil
}

// Validate is the one check of run-option values, shared by every surface
// that takes them from a user: the CLI flag block (cmd/internal/cli) and
// the daemon's figure query (internal/serve). It reports every problem at
// once: unknown workloads, Shrink below 1, Workers below 0, an unknown
// Topology preset, an invalid Probe config, and a Migrate spec that does
// not resolve together with MigratePolicy (see Migration). Figure
// functions read a zero Shrink as 1; a surface states it explicitly, so
// Validate treats zero as out of range. It looks names up
// without building workloads or presets for the defaults, so the daemon
// can run it on every request.
func (o Options) Validate() error {
	var errs []error
	var unknown []string
	for _, wl := range o.Workloads {
		if !workloads.Known(wl) {
			unknown = append(unknown, fmt.Sprintf("%q", wl))
		}
	}
	if len(unknown) > 0 {
		errs = append(errs, fmt.Errorf("unknown workloads %s (have %s)",
			strings.Join(unknown, ", "), strings.Join(workloads.AllNames(), " ")))
	}
	if o.Shrink < 1 {
		errs = append(errs, fmt.Errorf("shrink must be >= 1 (got %d)", o.Shrink))
	}
	if o.Workers < 0 {
		errs = append(errs, fmt.Errorf("workers must be >= 0 (got %d)", o.Workers))
	}
	if o.Topology != "" {
		if _, err := topology.Preset(o.Topology); err != nil {
			errs = append(errs, err)
		}
	}
	if o.Probe != nil {
		if err := o.Probe.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	if _, err := o.Migration(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// Migration resolves the Migrate spec together with the MigratePolicy
// override to one validated engine configuration. It returns nil when
// neither enables migration (an empty or "off" spec and no policy); a
// policy alone selects migrate.DefaultConfig with that classifier. A
// spec valid for one classifier can be invalid for the override (alpha=0
// is ignored by counter and rejected by ewma), so the pair is checked as
// one.
func (o Options) Migration() (*migrate.Config, error) {
	cfg, err := migrate.ParseSpec(o.Migrate)
	if err != nil || o.MigratePolicy == "" {
		return cfg, err
	}
	if cfg == nil {
		def := migrate.DefaultConfig()
		cfg = &def
	}
	cfg.Policy = o.MigratePolicy
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// migration is Migration for the figures with a migration arm: they exist
// to show migration, so an unset selection means migrate.DefaultConfig
// rather than no migration.
func (o Options) migration() (migrate.Config, error) {
	cfg, err := o.Migration()
	if err != nil || cfg == nil {
		return migrate.DefaultConfig(), err
	}
	return *cfg, nil
}

// classifierArms resolves the Migrate spec once under each classifier, as
// MigratePolicy overrides, for the figures that compare the two side by
// side (figmigtopo, figdyn; see CheckFigure). A spec valid for one
// classifier but not the other (alpha=0 suits counter, not ewma) fails
// here, before the figure runs a simulation.
func (o Options) classifierArms() (counter, ewma migrate.Config, err error) {
	o.MigratePolicy = migrate.PolicyCounter
	if counter, err = o.migration(); err != nil {
		return counter, ewma, err
	}
	o.MigratePolicy = migrate.PolicyEWMA
	ewma, err = o.migration()
	return counter, ewma, err
}

// executor builds this figure's sweep executor: opts-controlled worker
// count over the process-wide result cache (or Options.Cache if set),
// offloading cache misses to Options.Remote when configured.
func (o Options) executor() *Executor {
	cache := o.Cache
	if cache == nil {
		cache = sweepCache
	}
	e := newExecutor(o.Workers, cache, o.Remote).WithSpan(o.Span)
	if o.Probe != nil {
		e = e.WithProbe(*o.Probe, o.ProbeSink)
	}
	return e
}

// Figure is one reproduced table or figure.
type Figure struct {
	ID    string
	Title string
	Table *metrics.Table
	// Headline carries the figure's summary statistics, keyed by a short
	// label, for EXPERIMENTS.md and for regression tests.
	Headline map[string]float64
	// Notes document deviations from the paper.
	Notes []string
	// Sweep reports the figure's simulation count, cache hits, and wall
	// time (zero for figures that run no simulations).
	Sweep metrics.SweepStats
}

// Table1 reproduces the simulation-configuration table (for the selected
// topology; the default renders the paper's Table 1).
func Table1(opts Options) (Figure, error) {
	mc, err := opts.mem()
	if err != nil {
		return Figure{}, err
	}
	gc := gpu.Table1Config()
	tb := metrics.NewTable("Table 1: Simulation environment", "parameter", "value")
	tb.AddRow("Simulator", "hetsim (event-driven, cycle-approximate)")
	tb.AddRow("GPU Arch", "GTX-480 Fermi-like")
	tb.AddRow("GPU Cores", fmt.Sprintf("%d SMs @ 1.4GHz", gc.SMs))
	tb.AddRow("Warps/SM", gc.WarpsPerSM)
	tb.AddRow("L1 Caches", fmt.Sprintf("%dkB/SM, %dB lines, %d-way", gc.L1.SizeBytes>>10, gc.L1.LineBytes, gc.L1.Ways))
	tb.AddRow("L2 Caches", fmt.Sprintf("Memory Side %dkB/DRAM Channel", mc.L2SliceBytes>>10))
	tb.AddRow("L2 MSHRs", fmt.Sprintf("%d Entries/L2 Slice", mc.MSHRsPerSlice))
	for _, z := range mc.Zones {
		tb.AddRow(fmt.Sprintf("GPU-%s %s", zoneSide(z.Zone), z.Name),
			fmt.Sprintf("%d channels, %.0fGB/sec aggregate", z.Channels, mc.ZoneBandwidthGBps(z.Zone)))
	}
	t := mc.Zones[0].DRAM.Timing
	tb.AddRow("DRAM Timings", fmt.Sprintf("RCD=RP=%d,RC=%d,CL=WR=%d", t.RCD, t.RC, t.CL))
	tb.AddRow("GPU-CPU Interconnect", fmt.Sprintf("%d GPU core cycles", mc.Zones[1].ExtraLatency))
	// Additional pools beyond the paper's pair (e.g. a CXL expansion tier).
	for _, z := range mc.Zones[2:] {
		tb.AddRow(fmt.Sprintf("GPU-%s Interconnect", z.Name),
			fmt.Sprintf("%d GPU core cycles", z.ExtraLatency))
	}
	return Figure{ID: "table1", Title: "Simulation environment", Table: tb}, nil
}

func zoneSide(z vm.ZoneID) string {
	if z == vm.ZoneBO {
		return "Local"
	}
	return "Remote"
}

// Fig1 reproduces the motivation figure: bandwidth ratios of likely future
// heterogeneous memory systems (HPC, desktop, mobile).
func Fig1(Options) (Figure, error) {
	tb := metrics.NewTable("Figure 1: BW-Ratio of heterogeneous memory systems",
		"system", "BO tech", "BO GB/s", "CO tech", "CO GB/s", "BW ratio", "CO adds")
	head := map[string]float64{}
	for _, sys := range []struct {
		name string
		sbit core.SBIT
	}{
		{"hpc", core.HPCSBIT()},
		{"desktop", core.DesktopSBIT()},
		{"mobile", core.MobileSBIT()},
	} {
		bo, _ := sys.sbit.Info(vm.ZoneBO)
		co, _ := sys.sbit.Info(vm.ZoneCO)
		ratio := bo.BandwidthGBps / co.BandwidthGBps
		adds := co.BandwidthGBps / bo.BandwidthGBps
		tb.AddRow(sys.name, bo.Name, bo.BandwidthGBps, co.Name, co.BandwidthGBps, ratio, adds)
		head[sys.name+"_ratio"] = ratio
	}
	return Figure{ID: "fig1", Title: "BW ratios of future systems", Table: tb, Headline: head}, nil
}

// fig2aScales are the BO bandwidth multipliers of the Figure 2a sweep.
var fig2aScales = []float64{0.5, 0.75, 1.0, 1.5, 2.0}

// fig2aConfigs builds the Figure 2a grid — every workload at every
// GPU-pool bandwidth scale over the base memory configuration — in
// row-major (workload, scale) order. The sweep benchmark and the
// parallel-speedup test reuse it as a representative multi-workload
// figure sweep.
func fig2aConfigs(opts Options, mem memsys.Config) []RunConfig {
	wls := opts.workloadList()
	cfgs := make([]RunConfig, 0, len(wls)*len(fig2aScales))
	for _, wl := range wls {
		for _, sc := range fig2aScales {
			cfg := mem.Clone()
			cfg.ScaleZoneBandwidth(vm.ZoneBO, sc)
			cfgs = append(cfgs, RunConfig{Workload: wl, Dataset: opts.dataset(), Policy: LocalPolicy, Mem: cfg, Shrink: opts.shrink()})
		}
	}
	return cfgs
}

// Fig2a reproduces the bandwidth-sensitivity study: per-workload
// performance as the GPU-attached memory bandwidth scales from 0.5x to 2x,
// with all pages LOCAL in BO (the paper's single-memory baseline sweep).
func Fig2a(opts Options) (Figure, error) {
	scales := fig2aScales
	wls := opts.workloadList()
	mem, err := opts.mem()
	if err != nil {
		return Figure{}, err
	}
	e := opts.executor()
	res, err := e.Map(fig2aConfigs(opts, mem))
	if err != nil {
		return Figure{}, err
	}
	tb := metrics.NewTable("Figure 2a: GPU performance sensitivity to bandwidth",
		"workload", "0.5x", "0.75x", "1x", "1.5x", "2x")
	head := map[string]float64{}
	var bwGain []float64
	for wi, wl := range wls {
		perfs := make([]float64, len(scales))
		var base float64
		for si, sc := range scales {
			perfs[si] = res[wi*len(scales)+si].Perf
			if sc == 1.0 {
				base = perfs[si]
			}
		}
		row := []interface{}{wl}
		for _, p := range perfs {
			row = append(row, p/base)
		}
		tb.AddRow(row...)
		gain := perfs[len(perfs)-1] / base
		head[wl+"_2x"] = gain
		bwGain = append(bwGain, gain)
	}
	head["geomean_2x"] = metrics.Geomean(bwGain)
	return Figure{ID: "fig2a", Title: "Bandwidth sensitivity", Table: tb, Headline: head, Sweep: e.Stats()}, nil
}

// Fig2b reproduces the latency-sensitivity study: per-workload performance
// as a fixed latency is added to every memory access.
func Fig2b(opts Options) (Figure, error) {
	lats := []int64{0, 100, 200, 400}
	wls := opts.workloadList()
	mem, err := opts.mem()
	if err != nil {
		return Figure{}, err
	}
	cfgs := make([]RunConfig, 0, len(wls)*len(lats))
	for _, wl := range wls {
		for _, lat := range lats {
			cfg := mem.Clone()
			cfg.GlobalExtraLatency += simTime(lat)
			cfgs = append(cfgs, RunConfig{Workload: wl, Dataset: opts.dataset(), Policy: LocalPolicy, Mem: cfg, Shrink: opts.shrink()})
		}
	}
	e := opts.executor()
	res, err := e.Map(cfgs)
	if err != nil {
		return Figure{}, err
	}
	tb := metrics.NewTable("Figure 2b: GPU performance sensitivity to latency",
		"workload", "+0", "+100", "+200", "+400")
	head := map[string]float64{}
	var worst []float64
	for wi, wl := range wls {
		base := res[wi*len(lats)].Perf
		row := []interface{}{wl}
		var last float64
		for li := range lats {
			last = res[wi*len(lats)+li].Perf / base
			row = append(row, last)
		}
		tb.AddRow(row...)
		head[wl+"_400"] = last
		worst = append(worst, last)
	}
	head["geomean_400"] = metrics.Geomean(worst)
	return Figure{ID: "fig2b", Title: "Latency sensitivity", Table: tb, Headline: head, Sweep: e.Stats()}, nil
}

// Fig3 reproduces the placement-ratio sweep: per-workload performance of
// fixed xC-yB splits plus the LOCAL, INTERLEAVE, and BW-AWARE policies,
// normalized to LOCAL, with unconstrained BO capacity.
func Fig3(opts Options) (Figure, error) {
	ratios := []int{0, 10, 30, 50, 70, 90, 100}
	wls := opts.workloadList()
	mem, err := opts.mem()
	if err != nil {
		return Figure{}, err
	}
	// Per workload: LOCAL, the fixed ratios, INTERLEAVE, BW-AWARE.
	stride := 1 + len(ratios) + 2
	cfgs := make([]RunConfig, 0, len(wls)*stride)
	for _, wl := range wls {
		base := RunConfig{Workload: wl, Dataset: opts.dataset(), Mem: mem, Shrink: opts.shrink()}
		local := base
		local.Policy = LocalPolicy
		cfgs = append(cfgs, local)
		for _, pc := range ratios {
			rc := base
			rc.Policy = RatioPolicy
			rc.PercentCO = pc
			cfgs = append(cfgs, rc)
		}
		inter := base
		inter.Policy = InterleavePolicy
		bw := base
		bw.Policy = BWAwarePolicy
		cfgs = append(cfgs, inter, bw)
	}
	e := opts.executor()
	res, err := e.Map(cfgs)
	if err != nil {
		return Figure{}, err
	}

	cols := []string{"workload"}
	for _, r := range ratios {
		cols = append(cols, fmt.Sprintf("%dC-%dB", r, 100-r))
	}
	cols = append(cols, "INTERLEAVE", "BW-AWARE")
	tb := metrics.NewTable("Figure 3: performance across placement ratios (normalized to LOCAL)", cols...)

	var bwVsLocal, bwVsInter []float64
	head := map[string]float64{}
	for wi, wl := range wls {
		group := res[wi*stride : (wi+1)*stride]
		local, inter, bw := group[0], group[stride-2], group[stride-1]
		row := []interface{}{wl}
		for ri := range ratios {
			row = append(row, group[1+ri].Perf/local.Perf)
		}
		row = append(row, inter.Perf/local.Perf, bw.Perf/local.Perf)
		tb.AddRow(row...)
		bwVsLocal = append(bwVsLocal, bw.Perf/local.Perf)
		bwVsInter = append(bwVsInter, bw.Perf/inter.Perf)
		head[wl+"_bw_vs_local"] = bw.Perf / local.Perf
	}
	head["bwaware_vs_local"] = metrics.Geomean(bwVsLocal)
	head["bwaware_vs_interleave"] = metrics.Geomean(bwVsInter)
	return Figure{
		ID: "fig3", Title: "Placement ratio sweep", Table: tb, Headline: head, Sweep: e.Stats(),
		Notes: []string{"paper: BW-AWARE +18% vs LOCAL, +35% vs INTERLEAVE on average; peak near 30C-70B"},
	}, nil
}

// fig4Fracs are the BO capacities of the Figure 4 sweep, as fractions of
// the application footprint.
var fig4Fracs = []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1}

// Fig4 reproduces the capacity-constraint sweep: BW-AWARE performance as
// the BO pool shrinks from 100% to 10% of the application footprint,
// normalized per workload to the unconstrained run. The unconstrained
// baselines run first; a fraction whose cap the baseline never reached
// simulates exactly like the baseline (capUnreached), so only the
// fractions a baseline filled run, and the rest reuse its Result. A probed
// sweep runs every fraction: each probed run records its own series.
func Fig4(opts Options) (Figure, error) {
	fracs := fig4Fracs
	wls := opts.workloadList()
	mem, err := opts.mem()
	if err != nil {
		return Figure{}, err
	}
	bases := make([]RunConfig, len(wls))
	for wi, wl := range wls {
		bases[wi] = RunConfig{Workload: wl, Dataset: opts.dataset(), Policy: BWAwarePolicy, Mem: mem, Shrink: opts.shrink()}
	}
	e := opts.executor()
	baseRes, err := e.Map(bases)
	if err != nil {
		return Figure{}, err
	}
	// res[wi*len(fracs)+fi] is workload wi at fracs[fi]: the baseline's
	// Result where the cap is unreached, the capped run's otherwise.
	res := make([]Result, len(wls)*len(fracs))
	var cfgs []RunConfig
	var at []int
	for wi, base := range bases {
		for fi, f := range fracs {
			rc := base
			rc.BOCapacityFrac = f
			if i := wi*len(fracs) + fi; opts.Probe == nil && capUnreached(rc, baseRes[wi]) {
				res[i] = baseRes[wi]
			} else {
				cfgs = append(cfgs, rc)
				at = append(at, i)
			}
		}
	}
	capped, err := e.Map(cfgs)
	if err != nil {
		return Figure{}, err
	}
	for j, i := range at {
		res[i] = capped[j]
	}

	cols := []string{"workload"}
	for _, f := range fracs {
		cols = append(cols, fmt.Sprintf("%.0f%%", f*100))
	}
	tb := metrics.NewTable("Figure 4: BW-AWARE performance vs BO capacity (fraction of footprint)", cols...)
	head := map[string]float64{}
	var at70, at10 []float64
	for wi, wl := range wls {
		row := []interface{}{wl}
		for fi, f := range fracs {
			rel := res[wi*len(fracs)+fi].Perf / baseRes[wi].Perf
			row = append(row, rel)
			switch f {
			case 0.7:
				at70 = append(at70, rel)
			case 0.1:
				at10 = append(at10, rel)
			}
		}
		tb.AddRow(row...)
	}
	head["geomean_at_70pct"] = metrics.Geomean(at70)
	head["geomean_at_10pct"] = metrics.Geomean(at10)
	return Figure{
		ID: "fig4", Title: "Capacity sweep", Table: tb, Headline: head, Sweep: e.Stats(),
		Notes: []string{"paper: near-peak performance down to ~70% capacity, falling off below"},
	}, nil
}

// Fig5 reproduces the bandwidth-ratio sensitivity study: geomean
// performance of LOCAL, INTERLEAVE, and BW-AWARE as the CO pool's
// bandwidth grows from ~0 to parity with BO (200 GB/s), normalized to
// LOCAL at each point.
func Fig5(opts Options) (Figure, error) {
	coBWs := []float64{5, 40, 80, 120, 160, 200}
	policies := []PolicyKind{LocalPolicy, InterleavePolicy, BWAwarePolicy}
	wls := opts.workloadList()
	mem, err := opts.mem()
	if err != nil {
		return Figure{}, err
	}
	cfgs := make([]RunConfig, 0, len(coBWs)*len(wls)*len(policies))
	for _, cobw := range coBWs {
		for _, wl := range wls {
			for _, pk := range policies {
				cfg := mem.Clone()
				cfg.SetZoneBandwidthGBps(vm.ZoneCO, cobw)
				cfgs = append(cfgs, RunConfig{Workload: wl, Dataset: opts.dataset(), Policy: pk, Mem: cfg, Shrink: opts.shrink()})
			}
		}
	}
	e := opts.executor()
	res, err := e.Map(cfgs)
	if err != nil {
		return Figure{}, err
	}

	tb := metrics.NewTable("Figure 5: policy comparison vs CO bandwidth (normalized to LOCAL)",
		"CO GB/s", "LOCAL", "INTERLEAVE", "BW-AWARE")
	head := map[string]float64{}
	for ci, cobw := range coBWs {
		n := len(wls)
		ratioI := make([]float64, n)
		ratioB := make([]float64, n)
		for wi := 0; wi < n; wi++ {
			at := func(pi int) float64 { return res[(ci*n+wi)*len(policies)+pi].Perf }
			ratioI[wi] = at(1) / at(0)
			ratioB[wi] = at(2) / at(0)
		}
		gi := metrics.Geomean(ratioI)
		gb := metrics.Geomean(ratioB)
		tb.AddRow(fmt.Sprintf("%.0f", cobw), 1.0, gi, gb)
		head[fmt.Sprintf("interleave_at_%.0f", cobw)] = gi
		head[fmt.Sprintf("bwaware_at_%.0f", cobw)] = gb
	}
	return Figure{
		ID: "fig5", Title: "BW-ratio sensitivity", Table: tb, Headline: head, Sweep: e.Stats(),
		Notes: []string{"paper: BW-AWARE >= LOCAL everywhere and >= INTERLEAVE in all heterogeneous cases; INTERLEAVE catches up only at bandwidth symmetry"},
	}, nil
}
