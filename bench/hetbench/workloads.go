package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"hetsim/internal/core"
	"hetsim/internal/experiments"
	"hetsim/internal/gpu"
	"hetsim/internal/gpurt"
	"hetsim/internal/memsys"
	"hetsim/internal/migrate"
	"hetsim/internal/obs"
	"hetsim/internal/sim"
	"hetsim/internal/topology"
	"hetsim/internal/vm"
	"hetsim/internal/workloads"
)

// dataset is the canonical training set with the workload seed driving
// its address streams: the seed changes every address but not how much
// work a run does. The default seed gives workloads.Train() itself.
func dataset(seed int64) workloads.Dataset {
	ds := workloads.Train()
	ds.Seed = seed
	return ds
}

func preset(name string) (memsys.Config, error) {
	t, err := topology.Preset(name)
	if err != nil {
		return memsys.Config{}, err
	}
	return t.MemsysConfig(), nil
}

// assembly constructs, without running them, the simulated systems a
// workload's runs use: the workload build, topology compile, memory
// system and GPU that experiments.Run would set up.
type assembly struct {
	builds []float64 // workloads.Build + Shrink time, ms
}

func (b *assembly) assemble(rc experiments.RunConfig) error {
	t0 := time.Now()
	spec, err := workloads.Build(rc.Workload, rc.Dataset)
	if err != nil {
		return err
	}
	spec.Shrink(rc.Shrink)
	b.builds = append(b.builds, float64(time.Since(t0))/1e6)

	sbit := experiments.SBITFor(rc.Mem)
	space := vm.NewSpace(vm.DefaultPageSize, unlimitedZones(rc.Mem))
	placer := core.NewPlacer(space, core.NewBWAware(sbit, rc.Seed), sbit)
	allocs, err := spec.Allocate(gpurt.NewFirstTouch(space, placer), nil)
	if err != nil {
		return err
	}
	world := sim.NewWorld(1, memsys.LaneLookahead(rc.Mem))
	mem, err := memsys.New(world.Engine(), space, rc.Mem)
	if err != nil {
		return err
	}
	gpu.New(world.Engine(), mem, gpu.Table1Config()).Launch(spec.Programs(allocs))
	return nil
}

// assembleDistinct assembles one system per workload name in cfgs.
func (b *assembly) assembleDistinct(cfgs []experiments.RunConfig) error {
	for _, rc := range firstPerWorkload(cfgs) {
		if err := b.assemble(rc); err != nil {
			return fmt.Errorf("%s: %w", rc.Workload, err)
		}
	}
	return nil
}

// layerMetrics are the per-layer metrics a workload measures itself.
func (b *assembly) layerMetrics() map[string]float64 {
	return map[string]float64{"workloads.build_ms": median(b.builds)}
}

func unlimitedZones(mem memsys.Config) []vm.ZoneConfig {
	n := 0
	for _, z := range mem.Zones {
		n = max(n, int(z.Zone)+1)
	}
	zs := make([]vm.ZoneConfig, n)
	for i := range zs {
		zs[i] = vm.ZoneConfig{Name: fmt.Sprintf("zone%d", i), CapacityPages: vm.Unlimited}
	}
	return zs
}

// firstPerWorkload keeps the first config of each workload name.
func firstPerWorkload(cfgs []experiments.RunConfig) []experiments.RunConfig {
	seen := map[string]bool{}
	var out []experiments.RunConfig
	for _, rc := range cfgs {
		if !seen[rc.Workload] {
			seen[rc.Workload] = true
			out = append(out, rc)
		}
	}
	return out
}

// staticRuns generates each named workload under BW-AWARE, INTERLEAVE and
// LOCAL placement on the paper's system, at the given shrink (quickShrink
// with -quick).
func staticRuns(names []string, shrink, quickShrink int) func(params, *rand.Rand) ([]experiments.RunConfig, error) {
	return func(p params, rng *rand.Rand) ([]experiments.RunConfig, error) {
		mem, err := preset("k40-ddr4")
		if err != nil {
			return nil, err
		}
		s := shrink
		if p.quick {
			s = quickShrink
		}
		var cfgs []experiments.RunConfig
		for _, w := range names {
			for _, pol := range []experiments.PolicyKind{experiments.BWAwarePolicy, experiments.InterleavePolicy, experiments.LocalPolicy} {
				cfgs = append(cfgs, experiments.RunConfig{
					Workload: w, Dataset: dataset(p.seed), Policy: pol, Mem: mem,
					Shrink: s, Seed: rng.Int63n(1<<31) + 1, Lanes: 1,
				})
			}
		}
		return cfgs, nil
	}
}

// runBW: bandwidth-bound workloads at half length.
var runBW = staticRuns([]string{"lbm", "stencil", "bfs", "xsbench", "spmv", "needle"}, 2, 16)

// runCompute: latency- and compute-bound workloads at full length.
var runCompute = staticRuns([]string{"sgemm", "comd", "mriq", "gaussian", "lud"}, 1, 8)

// migrateCXL: full-length BW-AWARE runs on the CXL expansion topology
// with the fast pool capped at 10% of the footprint and online
// migration, under both classifiers.
func migrateCXL(p params, rng *rand.Rand) ([]experiments.RunConfig, error) {
	mem, err := preset("cxl-expansion")
	if err != nil {
		return nil, err
	}
	shrink := 1
	if p.quick {
		shrink = 8
	}
	var cfgs []experiments.RunConfig
	for _, w := range []string{"bfs", "xsbench", "lbm", "stencil"} {
		for _, pol := range []string{migrate.PolicyCounter, migrate.PolicyEWMA} {
			mc := migrate.DefaultConfig()
			mc.Policy = pol
			cfgs = append(cfgs, experiments.RunConfig{
				Workload: w, Dataset: dataset(p.seed), Policy: experiments.BWAwarePolicy, Mem: mem,
				BOCapacityFrac: 0.1, Migration: &mc,
				Shrink: shrink, Seed: rng.Int63n(1<<31) + 1, Lanes: 2,
			})
		}
	}
	return cfgs, nil
}

// runLoop runs fresh single simulations one at a time, each through its
// own isolated executor so no result cache serves a repeat. Every pass
// runs the same seeded configs in a seeded order, and every repeat must
// reproduce its first run byte for byte.
type runLoop struct {
	assembly
	p      params
	gen    func(params, *rand.Rand) ([]experiments.RunConfig, error)
	logged *atomic.Int64 // lane-fallback warnings counted by the log handler

	cfgs      []experiments.RunConfig // generation order
	order     []int                   // execution order within a pass
	first     []string                // report digest of each config's first run
	fallbacks int                     // SweepStats.LaneFallbacks, summed
}

func (w *runLoop) setup() error {
	rng := rand.New(rand.NewSource(w.p.seed))
	cfgs, err := w.gen(w.p, rng)
	if err != nil {
		return err
	}
	if w.p.lanes > 0 {
		for i := range cfgs {
			cfgs[i].Lanes = w.p.lanes
		}
	}
	w.cfgs = cfgs
	w.order = rng.Perm(len(cfgs))
	w.first = make([]string, len(cfgs))
	return w.assembleDistinct(cfgs)
}

func (w *runLoop) measure(ph *phase) error {
	return ph.loop("pass", func() error {
		for _, i := range w.order {
			rc := w.cfgs[i]
			sp := ph.tr.span("bench.run")
			sp.SetAttr("workload", rc.Workload)
			sp.SetAttr("policy", rc.Policy.String())
			ex := experiments.NewIsolatedExecutor(1).WithSpan(sp)
			t0 := time.Now()
			res, err := ex.Run(rc)
			d := time.Since(t0)
			sp.End()
			ph.simWall += d
			w.fallbacks += ex.Stats().LaneFallbacks
			ph.accesses += res.Accesses
			ph.addOp(d, w.check(i, res, err))
		}
		return nil
	})
}

// check validates one run and compares it with the config's first run.
func (w *runLoop) check(i int, res experiments.Result, err error) string {
	rc := w.cfgs[i]
	label := fmt.Sprintf("%s/%s seed %d", rc.Workload, rc.Policy, rc.Seed)
	if err != nil {
		return fmt.Sprintf("%s: %v", label, err)
	}
	if msg := checkResult(rc, res); msg != "" {
		return label + ": " + msg
	}
	b, err := json.Marshal(experiments.NewReport(res))
	if err != nil {
		return fmt.Sprintf("%s: %v", label, err)
	}
	d := sha(b)
	switch w.first[i] {
	case "":
		w.first[i] = d
	case d:
	default:
		return label + ": result differs from the config's first run"
	}
	return ""
}

// checkResult checks a run's invariants: it took time, its pool-0 service
// fraction is a fraction, and, without migration (where the placement
// counts are the final occupancy), placement filled no pool past its
// capacity.
func checkResult(rc experiments.RunConfig, res experiments.Result) string {
	if res.Cycles <= 0 || res.Accesses == 0 {
		return fmt.Sprintf("%d cycles, %d accesses", res.Cycles, res.Accesses)
	}
	if !(res.BOServed >= 0 && res.BOServed <= 1) {
		return fmt.Sprintf("pool 0 served a fraction %v of accesses", res.BOServed)
	}
	if rc.Migration != nil {
		return ""
	}
	for _, z := range rc.Mem.Zones {
		if n, capacity := res.Place.PagesPerZone[z.Zone], poolCapacity(rc, z, res.Footprint); n > capacity {
			return fmt.Sprintf("pool %s holds %d pages, capacity %d", z.Name, n, capacity)
		}
	}
	return ""
}

// poolCapacity is pool z's page budget in a run of rc, as the runner sizes
// it: the topology's capacity, and for pool 0 the footprint fraction.
func poolCapacity(rc experiments.RunConfig, z memsys.ZoneConfig, footprint uint64) int {
	capacity := vm.Unlimited
	if z.CapacityBytes > 0 {
		capacity = max(int(z.CapacityBytes/vm.DefaultPageSize), 1)
	}
	if z.Zone == vm.ZoneBO && rc.BOCapacityFrac > 0 && rc.BOCapacityFrac < 1e9 {
		foot := vm.PagesFor(footprint, vm.DefaultPageSize)
		capacity = min(capacity, max(int(math.Round(rc.BOCapacityFrac*float64(foot))), 1))
	}
	return capacity
}

// finish checks that every lane fallback was logged once, and reruns one
// migration config per workload under the flight recorder: its pool
// occupancy, sampled through the run, must stay within capacity, and the
// probed run must reproduce the unprobed one.
func (w *runLoop) finish(c *checks) {
	if n := w.logged.Load(); n != int64(w.fallbacks) {
		c.fail("%d lane-fallback warnings logged, sweep stats count %d", n, w.fallbacks)
	}
	probed := map[string]bool{}
	for i, rc := range w.cfgs {
		if rc.Migration == nil || probed[rc.Workload] {
			continue
		}
		probed[rc.Workload] = true
		var snap obs.Snapshot
		ex := experiments.NewIsolatedExecutor(1).WithProbe(obs.Config{Interval: 1000, MaxSamples: 1 << 12},
			func(_ string, s obs.Snapshot) { snap = s })
		rc.Lanes = 1
		res, err := ex.Run(rc)
		if msg := w.check(i, res, err); msg != "" {
			c.fail("probed run of %s", msg)
			continue
		}
		for _, z := range rc.Mem.Zones {
			col := slices.Index(snap.Columns, "pages."+strings.ToLower(z.Name))
			if col < 0 || snap.Dropped > 0 {
				c.fail("%s probed: no complete pages.%s series", rc.Workload, z.Name)
				continue
			}
			capacity := poolCapacity(rc, z, res.Footprint)
			for _, row := range snap.Rows {
				if int(row[col]) > capacity {
					c.fail("%s: pool %s held %v pages at cycle %v, capacity %d", rc.Workload, z.Name, row[col], row[0], capacity)
					break
				}
			}
		}
	}
}

func (w *runLoop) digest() string {
	return sha([]byte(fmt.Sprint(w.first)))
}

func (w *runLoop) replayConfigs() []experiments.RunConfig {
	return firstPerWorkload(w.cfgs)
}

// figureWorkloads is the figures workload's subset of the paper's set:
// six memory-sensitive workloads plus the latency-bound (sgemm) and
// memory-insensitive (comd) controls.
var figureWorkloads = []string{"bfs", "lbm", "stencil", "xsbench", "spmv", "mummergpu", "sgemm", "comd"}

// figurePass renders the six figures cold, each pass against a fresh
// result cache, so the baselines the figures share are simulated once
// per pass and served from the cache after.
type figurePass struct {
	assembly
	p        params
	opts     experiments.Options
	first    string
	figureMS map[string][]float64 // render times of the traced phase
}

func (w *figurePass) setup() error {
	w.opts = experiments.Options{Workloads: figureWorkloads, Shrink: 8, Workers: 2, Dataset: dataset(w.p.seed)}
	if w.p.quick {
		w.opts.Workloads, w.opts.Shrink = []string{"bfs", "sgemm"}, 32
	}
	cfgs, err := bwAwareConfigs(w.opts)
	if err != nil {
		return err
	}
	return w.assembleDistinct(cfgs)
}

// bwAwareConfigs are BW-AWARE runs of each of the options' workloads on
// the paper's system.
func bwAwareConfigs(o experiments.Options) ([]experiments.RunConfig, error) {
	mem, err := preset("k40-ddr4")
	if err != nil {
		return nil, err
	}
	var cfgs []experiments.RunConfig
	for _, wl := range o.Workloads {
		cfgs = append(cfgs, experiments.RunConfig{
			Workload: wl, Dataset: o.Dataset, Policy: experiments.BWAwarePolicy, Mem: mem, Shrink: o.Shrink, Lanes: 1,
		})
	}
	return cfgs, nil
}

func (w *figurePass) measure(ph *phase) error {
	return ph.loop("figures", func() error {
		opts := w.opts
		opts.Cache = experiments.NewResultCache()
		h := sha256.New()
		for _, id := range figureIDs {
			fn, ok := experiments.ByID(id)
			if !ok {
				return fmt.Errorf("no figure %s", id)
			}
			sp := ph.tr.span("bench.figure")
			sp.SetAttr("figure", id)
			opts.Span = sp
			t0 := time.Now()
			fig, err := fn(opts)
			d := time.Since(t0)
			sp.End()
			ph.simWall += d
			if ph.tr != nil {
				w.figureMS[id] = append(w.figureMS[id], float64(d)/1e6)
			}
			ph.accesses += fig.Sweep.Accesses
			problem := ""
			switch {
			case err != nil:
				problem = fmt.Sprintf("%s: %v", id, err)
			case fig.Sweep.Errors > 0 || fig.Table == nil || fig.Table.Rows() == 0:
				problem = fmt.Sprintf("%s: %d sweep errors, empty or missing table", id, fig.Sweep.Errors)
			default:
				fmt.Fprintf(h, "%s\n%s", id, fig.Table.CSV())
			}
			ph.addOp(d, problem)
		}
		d := hex.EncodeToString(h.Sum(nil))
		if w.first == "" {
			w.first = d
		} else if d != w.first {
			ph.c.fail("figure output differs from the first pass")
		}
		return nil
	})
}

func (w *figurePass) finish(*checks) {}

func (w *figurePass) layerMetrics() map[string]float64 {
	m := w.assembly.layerMetrics()
	for id, ms := range w.figureMS {
		m["experiments.figure_ms."+id] = median(ms)
	}
	return m
}

func (w *figurePass) digest() string { return w.first }

func (w *figurePass) replayConfigs() []experiments.RunConfig {
	cfgs, _ := bwAwareConfigs(w.opts)
	return cfgs
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
