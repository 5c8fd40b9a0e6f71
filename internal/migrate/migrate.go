// Package migrate implements dynamic page migration between memory pools —
// the future work the paper explicitly defers in §5.5 ("further work is
// needed to determine if there is significant value to justify the expense
// of online profiling and page-migration for GPUs beyond improved initial
// page allocation").
//
// The engine wakes every epoch, diffs the memory system's per-page DRAM
// access counters, and hands the epoch's activity to a pluggable Policy
// that plans page moves along the bandwidth order of the pools (fastest
// first, from the SBIT): hot pages are promoted one hop up the order and
// cold pages demoted one hop down it, so on a three-tier topology like
// cxl-expansion a page climbs CXL → DDR4 → GDDR5 across epochs. An epoch
// scans the page table once, grouping the pages that may move by pool;
// each tier pair then draws its hottest promotion candidates and coldest
// victims from binary heaps in the strict total order (heat, page number),
// popping only as many as it moves. A pass therefore costs O(span + k log n)
// for k moves out of n candidates, reuses its buffers from epoch to epoch,
// and allocates nothing once warm. Two classifiers ship with the package:
//
//   - "counter" — the epoch-diff access-counter policy: pages whose
//     this-epoch count clears MinHeat are promotion candidates, demotion
//     victims are the coldest resident pages of the tier above, and a
//     hysteresis factor keeps equal-heat pages from ping-ponging;
//   - "ewma" — a history policy: per-page exponentially-weighted heat
//     (EWMAAlpha) with per-pool high/low occupancy watermarks; pools above
//     the high watermark shed their coldest pages down the order until
//     they drain to the low watermark, and pages whose smoothed heat
//     clears MinHeat climb while the tier above has headroom.
//
// Costs follow the paper's measurements of Linux 3.16:
//
//   - a migrating page is locked for LockCycles ("several microseconds of
//     latency between invalidation and first re-use"; 2 us at 1.4 GHz is
//     2800 cycles), during which accesses to it stall;
//   - the copy itself is charged to both pools' DRAM channels, so
//     migrations steal real application bandwidth ("not possible to
//     migrate pages ... at a rate faster than several GB/s");
//   - a per-epoch page budget bounds the migration rate;
//   - demotions may drain through the memory system's bounded asynchronous
//     write-back buffer (WriteBackPages): the page is locked only for the
//     invalidation window while the copy proceeds at the destination's
//     DRAM speed in the background — the PENDING_WRITE_BACK state of real
//     GPU page managers. A full buffer falls back to a blocking copy.
//
// experiments.FigMigration compares BW-AWARE + migration against annotated
// and oracle initial placement; experiments.FigMigTopo runs both policies
// across every topology preset.
package migrate

import (
	"fmt"

	"hetsim/internal/core"
	"hetsim/internal/memsys"
	"hetsim/internal/sim"
	"hetsim/internal/vm"
)

// Config tunes the migration engine.
type Config struct {
	// Policy selects the classifier: "counter" (epoch-diff access counts,
	// the default) or "ewma" (history heat with pool watermarks). Empty
	// means "counter".
	Policy string
	// EpochCycles between migration passes.
	EpochCycles sim.Time
	// PagesPerEpoch bounds how many pages may move per pass (the
	// bandwidth cap: budget * pageSize / epoch is the migration rate).
	PagesPerEpoch int
	// LockCycles a page is inaccessible while moving.
	LockCycles sim.Time
	// MinHeat is the minimum epoch access count (or smoothed heat, for the
	// ewma policy) for a page to be worth promoting. Must be positive: at
	// zero every touched page would qualify and the budget would be spent
	// shuffling noise.
	MinHeat uint64
	// HysteresisFactor requires a promotion candidate to be at least this
	// many times hotter than the demotion victim it displaces. Values in
	// [0, 1] allow equal-heat swaps, which ping-pong under symmetric
	// traffic; negative values are a configuration error.
	HysteresisFactor float64
	// CooldownEpochs prevents a page that just moved from moving again for
	// this many epochs, breaking promote/demote cycles. Negative values
	// are a configuration error.
	CooldownEpochs int
	// EWMAAlpha is the ewma policy's smoothing weight on the current
	// epoch's count: heat = alpha*delta + (1-alpha)*heat. Must be in
	// (0, 1] when the ewma policy is selected.
	EWMAAlpha float64
	// HighWatermark and LowWatermark are the ewma policy's per-pool
	// occupancy thresholds (fractions of pool capacity): a pool filled
	// above HighWatermark demotes its coldest pages down the bandwidth
	// order until it reaches LowWatermark. Require
	// 0 < LowWatermark <= HighWatermark <= 1 for the ewma policy;
	// unlimited-capacity pools are never watermark-drained.
	HighWatermark float64
	LowWatermark  float64
	// WriteBackPages sizes the memory system's bounded asynchronous
	// write-back buffer for demotions, in pages; 0 makes every demotion a
	// blocking copy (the pre-buffer behavior).
	WriteBackPages int
}

// Policy names accepted by Config.Policy and ParseSpec.
const (
	PolicyCounter = "counter"
	PolicyEWMA    = "ewma"
)

// PolicyNames lists the built-in classifiers.
func PolicyNames() []string { return []string{PolicyCounter, PolicyEWMA} }

// KnownPolicy reports whether name is a built-in classifier ("" selects
// the default counter policy).
func KnownPolicy(name string) bool {
	return name == "" || name == PolicyCounter || name == PolicyEWMA
}

// DefaultConfig matches the paper's cost measurements: 2 us lock
// (2800 cycles at 1.4 GHz) and a budget that works out to a few GB/s.
func DefaultConfig() Config {
	return Config{
		Policy:           PolicyCounter,
		EpochCycles:      5000,
		PagesPerEpoch:    128,
		LockCycles:       2800,
		MinHeat:          16,
		HysteresisFactor: 3,
		CooldownEpochs:   8,
		EWMAAlpha:        0.5,
		HighWatermark:    0.95,
		LowWatermark:     0.90,
		WriteBackPages:   8,
	}
}

// hysteresis is the effective dominance factor: validated non-negative,
// with values at or below 1 meaning "no hysteresis" (equal-heat swaps
// allowed).
func (c Config) hysteresis() float64 {
	if c.HysteresisFactor <= 1 {
		return 1
	}
	return c.HysteresisFactor
}

// Validate reports configuration errors. Out-of-range values are rejected
// here, loudly, rather than clamped at use: a negative cooldown or a zero
// MinHeat is a configuration mistake, not a request for the nearest legal
// behavior. The float checks are written so that NaN fails them too.
func (c Config) Validate() error {
	switch {
	case !KnownPolicy(c.Policy):
		return fmt.Errorf("migrate: unknown policy %q (have %v)", c.Policy, PolicyNames())
	case c.EpochCycles <= 0:
		return fmt.Errorf("migrate: EpochCycles %d must be positive", c.EpochCycles)
	case c.PagesPerEpoch <= 0:
		return fmt.Errorf("migrate: PagesPerEpoch %d must be positive", c.PagesPerEpoch)
	case c.LockCycles < 0:
		return fmt.Errorf("migrate: LockCycles %d negative", c.LockCycles)
	case c.MinHeat == 0:
		return fmt.Errorf("migrate: MinHeat must be positive (zero would migrate every touched page)")
	case !(c.HysteresisFactor >= 0):
		return fmt.Errorf("migrate: HysteresisFactor %g negative", c.HysteresisFactor)
	case c.CooldownEpochs < 0:
		return fmt.Errorf("migrate: CooldownEpochs %d negative", c.CooldownEpochs)
	case c.WriteBackPages < 0:
		return fmt.Errorf("migrate: WriteBackPages %d negative", c.WriteBackPages)
	}
	if c.Policy == PolicyEWMA {
		switch {
		case !(c.EWMAAlpha > 0 && c.EWMAAlpha <= 1):
			return fmt.Errorf("migrate: EWMAAlpha %g must be in (0, 1]", c.EWMAAlpha)
		case !(c.LowWatermark > 0 && c.LowWatermark <= c.HighWatermark && c.HighWatermark <= 1):
			return fmt.Errorf("migrate: watermarks low=%g high=%g must satisfy 0 < low <= high <= 1",
				c.LowWatermark, c.HighWatermark)
		}
	}
	return nil
}

// Stats counts engine activity.
type Stats struct {
	Epochs     int
	Promotions int // moves up the bandwidth order
	Demotions  int // moves down the bandwidth order
	Skipped    int // candidate promotions without a cold-enough victim
	// AsyncWriteBacks counts demotions accepted by the bounded write-back
	// buffer (locked only for the invalidation window); WriteBackStalls
	// counts demotions that found the buffer full and fell back to a
	// blocking copy.
	AsyncWriteBacks int
	WriteBackStalls int
}

// Engine performs epoch-based hot/cold page exchange over the pools of a
// memory system, fastest pool first.
type Engine struct {
	cfg    Config
	root   *sim.Actor // epochs run on the world's root actor
	mem    *memsys.System
	space  *vm.Space
	order  []vm.ZoneID      // pools by descending bandwidth (SBIT order)
	rank   [vm.MaxZones]int // a pool's index in order; -1 if absent
	policy Policy
	// Active reports whether the application is still running; the engine
	// stops rescheduling when it returns false so the simulation can
	// drain. Defaults to "always active" until set.
	Active func() bool

	// last holds the cumulative page counts at the previous epoch; delta
	// is the buffer each epoch reads the counts into and differences in
	// place.
	last, delta []uint64
	// lastMoved[vpage] is the epoch of the page's last move. Epochs count
	// from 1, so 0 means never moved.
	lastMoved []int
	// view is the epoch's View; pools and hot/cold are its reused
	// candidate buffers (see View.pool).
	view      View
	pools     [vm.MaxZones][]uint64
	hot, cold heatHeap
	stats     Stats
}

// New builds a migration engine over a memory system: the pool order is
// discovered from the system's configuration (the SBIT bandwidth order)
// and the classifier from cfg.Policy. Call Start to begin.
func New(eng *sim.Engine, mem *memsys.System, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		root:   sim.WorldOf(eng).Root(),
		mem:    mem,
		Active: func() bool { return true },
	}
	for z := range e.rank {
		e.rank[z] = -1
	}
	switch cfg.Policy {
	case "", PolicyCounter:
		e.policy = &counterPolicy{}
	case PolicyEWMA:
		e.policy = &ewmaPolicy{}
	}
	if mem != nil {
		e.space = mem.Space()
		e.order = bandwidthOrder(mem.Config())
		for i, z := range e.order {
			e.rank[z] = i
		}
		mem.ConfigureWriteBack(cfg.WriteBackPages)
	}
	return e, nil
}

// bandwidthOrder derives the pool promotion order from a memory
// configuration via the SBIT — the same discovery step the placement
// policies use (experiments.SBITFor).
func bandwidthOrder(cfg memsys.Config) []vm.ZoneID {
	var t core.SBIT
	for _, z := range cfg.Zones {
		t.ZoneInfos = append(t.ZoneInfos, core.ZoneInfo{
			Zone: z.Zone, Name: z.Name, BandwidthGBps: cfg.ZoneBandwidthGBps(z.Zone),
		})
	}
	return t.ZonesByBandwidth()
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// PolicyName reports the active classifier.
func (e *Engine) PolicyName() string { return e.policy.Name() }

// Order returns the pools fastest-first — the promotion direction.
func (e *Engine) Order() []vm.ZoneID { return e.order }

// Start schedules the first epoch on the root actor.
func (e *Engine) Start() {
	e.root.After(e.cfg.EpochCycles, epochTick{e}, 0)
}

// epochTick is the epoch's sim.Handler. It keeps OnEvent off Engine's
// public method set; being pointer-shaped, it schedules without allocating.
type epochTick struct{ e *Engine }

func (t epochTick) OnEvent(uint64) { t.e.epoch() }

// epoch runs one migration epoch and schedules the next.
func (e *Engine) epoch() {
	if !e.Active() {
		return
	}
	e.stats.Epochs++
	// Counts only grow, and so does their table: read the totals into the
	// delta buffer, then difference them in place while last takes them.
	delta := e.mem.PageCountsInto(e.delta)
	if n := len(delta); n > len(e.last) {
		e.last = append(e.last, make([]uint64, n-len(e.last))...)
	}
	for i, c := range delta {
		delta[i], e.last[i] = c-e.last[i], c
	}
	e.delta = delta
	e.pass(delta)
	e.root.After(e.cfg.EpochCycles, epochTick{e}, 0)
}

// pass hands one epoch's activity to the policy through the reused View.
func (e *Engine) pass(delta []uint64) {
	e.view = View{
		Delta:  delta,
		Order:  e.order,
		Space:  e.space,
		Cfg:    e.cfg,
		eng:    e,
		budget: e.cfg.PagesPerEpoch,
	}
	e.policy.Epoch(&e.view)
}

// eligible reports whether a page may move this epoch (cooldown). A page
// moved earlier in the current pass never is: Epochs-last is then 0.
func (e *Engine) eligible(vpage uint64) bool {
	if vpage >= uint64(len(e.lastMoved)) {
		return true
	}
	last := e.lastMoved[vpage]
	return last == 0 || e.stats.Epochs-last > e.cfg.CooldownEpochs
}

// move migrates one page, modelling invalidation, copy traffic, and the
// lock window. Demotions try the asynchronous write-back buffer first:
// accepted pages are locked only for the invalidation window while the
// copy drains at DRAM speed in the background; a full (or disabled)
// buffer degrades to the blocking copy.
func (e *Engine) move(vpage uint64, from, to vm.ZoneID) bool {
	ps := e.space.PageSize()
	oldPA, newPA, err := e.space.Remap(vpage, to)
	if err != nil || oldPA == newPA {
		return false
	}
	if n := int(vpage) + 1; n > len(e.lastMoved) {
		e.lastMoved = append(e.lastMoved, make([]int, n-len(e.lastMoved))...)
	}
	e.lastMoved[vpage] = e.stats.Epochs
	e.mem.InvalidatePage(oldPA, ps)
	now := e.root.Now()
	if e.rank[to] > e.rank[from] { // demotion: data must drain downward
		if e.mem.EnqueueWriteBack(vpage, oldPA, newPA, ps) {
			e.stats.AsyncWriteBacks++
			e.mem.LockPage(vpage, now+e.cfg.LockCycles)
			return true
		}
		if e.cfg.WriteBackPages > 0 {
			e.stats.WriteBackStalls++ // buffer full: blocking copy
		}
	}
	copyDone := e.mem.CopyPageTraffic(oldPA, newPA, ps)
	lockUntil := copyDone
	if min := now + e.cfg.LockCycles; min > lockUntil {
		lockUntil = min
	}
	e.mem.LockPage(vpage, lockUntil)
	return true
}
