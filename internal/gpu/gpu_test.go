package gpu

import (
	"testing"

	"hetsim/internal/cache"
	"hetsim/internal/sim"
	"hetsim/internal/tlb"
	"hetsim/internal/vm"
)

// fakeMem completes every access after a fixed latency, with unlimited
// bandwidth. It counts reads and writes.
type fakeMem struct {
	latency sim.Time
	count   int
	writes  int
}

func (m *fakeMem) AccessH(src *sim.Actor, va uint64, write bool, tc *vm.TransCache, h sim.Handler, arg uint64) {
	m.count++
	if write {
		m.writes++
	}
	src.After(m.latency, h, arg)
}

// listProgram replays a fixed list of phases.
type listProgram struct {
	phases []Phase
	next   int
}

func (p *listProgram) NextPhase() (Phase, bool) {
	if p.next >= len(p.phases) {
		return Phase{}, false
	}
	ph := p.phases[p.next]
	p.next++
	return ph, true
}

func phasesOf(n int, compute sim.Time, addrs []Access, mlp int) *listProgram {
	ph := make([]Phase, n)
	for i := range ph {
		ph[i] = Phase{ComputeCycles: compute, Addrs: addrs, MLP: mlp}
	}
	return &listProgram{phases: ph}
}

func smallConfig() Config {
	return Config{
		SMs:        2,
		WarpsPerSM: 4,
		L1:         cache.Config{SizeBytes: 4096, LineBytes: 128, Ways: 4},
		L1Latency:  4,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := Table1Config().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Table1Config()
	bad.SMs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero SMs validated")
	}
	bad = Table1Config()
	bad.WarpsPerSM = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero warps validated")
	}
	bad = Table1Config()
	bad.L1.LineBytes = 100
	if err := bad.Validate(); err == nil {
		t.Fatal("bad L1 validated")
	}
}

func TestSingleWarpCompletes(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{latency: 100}
	g := New(eng, mem, smallConfig())
	g.Launch([]WarpProgram{phasesOf(3, 10, []Access{{VA: 0}}, 1)})
	end := g.Run()
	if g.Stats().WarpsCompleted != 1 {
		t.Fatalf("WarpsCompleted = %d, want 1", g.Stats().WarpsCompleted)
	}
	if g.Outstanding() != 0 {
		t.Fatal("warps still outstanding")
	}
	// One L1 miss then hits: phase 1 pays 100, phases 2-3 pay L1 latency.
	if end < 100 {
		t.Fatalf("end = %d, expected at least one memory round trip", end)
	}
	if g.Stats().Phases != 3 {
		t.Fatalf("Phases = %d, want 3", g.Stats().Phases)
	}
}

func TestL1FiltersRepeatedReads(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{latency: 100}
	g := New(eng, mem, smallConfig())
	g.Launch([]WarpProgram{phasesOf(5, 0, []Access{{VA: 256}}, 1)})
	g.Run()
	if mem.count != 1 {
		t.Fatalf("memory saw %d requests, want 1 (L1 should filter repeats)", mem.count)
	}
	st := g.Stats()
	if st.L1Hits != 4 || st.L1Misses != 1 {
		t.Fatalf("L1 hits/misses = %d/%d, want 4/1", st.L1Hits, st.L1Misses)
	}
}

func TestWritesBypassAndInvalidateL1(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{latency: 10}
	g := New(eng, mem, smallConfig())
	prog := &listProgram{phases: []Phase{
		{Addrs: []Access{{VA: 0}}, MLP: 1},              // read: miss, fill
		{Addrs: []Access{{VA: 0, Write: true}}, MLP: 1}, // write: invalidate
		{Addrs: []Access{{VA: 0}}, MLP: 1},              // read again: must miss
	}}
	g.Launch([]WarpProgram{prog})
	g.Run()
	if mem.count != 3 {
		t.Fatalf("memory saw %d requests, want 3 (write must invalidate)", mem.count)
	}
	if mem.writes != 1 {
		t.Fatalf("memory saw %d writes, want 1", mem.writes)
	}
}

// Latency hiding: with many warps and abundant MLP, doubling memory latency
// must barely change runtime; with one warp at MLP=1, runtime must scale
// with latency. This is the paper's Figure 2b mechanism.
func TestLatencyHiding(t *testing.T) {
	run := func(nwarps int, latency sim.Time, mlp int) sim.Time {
		eng := sim.New()
		mem := &fakeMem{latency: latency}
		cfg := smallConfig()
		cfg.SMs = 1
		cfg.WarpsPerSM = 64
		g := New(eng, mem, cfg)
		progs := make([]WarpProgram, nwarps)
		for i := range progs {
			// Distinct addresses so the L1 (4 KB) thrashes: every access
			// goes to memory.
			addrs := make([]Access, 8)
			for j := range addrs {
				addrs[j] = Access{VA: uint64(i*1000003+j*128+1<<20) * 128}
			}
			progs[i] = phasesOf(10, 5, addrs, mlp)
		}
		g.Launch(progs)
		return g.Run()
	}

	// Single warp, serial accesses: latency-bound.
	t1 := run(1, 100, 1)
	t2 := run(1, 400, 1)
	if ratio := float64(t2) / float64(t1); ratio < 2.5 {
		t.Fatalf("serial warp: 4x latency gave only %.2fx runtime; expected latency-bound scaling", ratio)
	}

	// 48 warps, MLP 8: latency should be largely hidden.
	t3 := run(48, 100, 8)
	t4 := run(48, 400, 8)
	if ratio := float64(t4) / float64(t3); ratio > 1.7 {
		t.Fatalf("48 warps: 4x latency gave %.2fx runtime; expected mostly hidden", ratio)
	}
}

func TestIssuePortSerializes(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{latency: 1}
	cfg := smallConfig()
	cfg.SMs = 1
	g := New(eng, mem, cfg)
	// One warp bursts 32 distinct lines with unbounded MLP: issue takes
	// >= 32 cycles through the 1/cycle port.
	addrs := make([]Access, 32)
	for i := range addrs {
		addrs[i] = Access{VA: uint64(i) * 128}
	}
	g.Launch([]WarpProgram{phasesOf(1, 0, addrs, 0)})
	end := g.Run()
	if end < 32 {
		t.Fatalf("end = %d, want >= 32 (1 request/cycle issue port)", end)
	}
}

func TestMoreWarpsThanContexts(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{latency: 20}
	cfg := smallConfig() // 2 SMs x 4 contexts = 8 resident
	g := New(eng, mem, cfg)
	const n = 50
	progs := make([]WarpProgram, n)
	for i := range progs {
		progs[i] = phasesOf(2, 1, []Access{{VA: uint64(i) * 4096}}, 1)
	}
	g.Launch(progs)
	g.Run()
	if got := g.Stats().WarpsCompleted; got != n {
		t.Fatalf("WarpsCompleted = %d, want %d", got, n)
	}
}

func TestDegeneratePhaseProgress(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{latency: 1}
	g := New(eng, mem, smallConfig())
	// Phases with no compute and no memory must still terminate.
	g.Launch([]WarpProgram{phasesOf(10, 0, nil, 0)})
	g.Run()
	if g.Stats().WarpsCompleted != 1 {
		t.Fatal("degenerate program did not complete")
	}
}

func TestComputeOnlyWarpTime(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{latency: 1}
	g := New(eng, mem, smallConfig())
	g.Launch([]WarpProgram{phasesOf(4, 25, nil, 0)})
	end := g.Run()
	if end < 100 {
		t.Fatalf("4 x 25-cycle compute phases ended at %d, want >= 100", end)
	}
	if g.Stats().ComputeCycles != 100 {
		t.Fatalf("ComputeCycles = %d, want 100", g.Stats().ComputeCycles)
	}
}

func TestL1HitRate(t *testing.T) {
	var s Stats
	if s.L1HitRate() != 0 {
		t.Fatal("empty hit rate not 0")
	}
	s.L1Hits, s.L1Misses = 3, 1
	if s.L1HitRate() != 0.75 {
		t.Fatalf("L1HitRate = %v, want 0.75", s.L1HitRate())
	}
}

func TestMLPWindowLimitsOutstanding(t *testing.T) {
	eng := sim.New()
	outstanding, peak := 0, 0
	mem := &hookMem{latency: 50, onIssue: func() {
		outstanding++
		if outstanding > peak {
			peak = outstanding
		}
	}}
	mem.onDone = func() { outstanding-- }
	cfg := smallConfig()
	cfg.SMs = 1
	g := New(eng, mem, cfg)
	addrs := make([]Access, 16)
	for i := range addrs {
		addrs[i] = Access{VA: uint64(i) * 128}
	}
	g.Launch([]WarpProgram{phasesOf(1, 0, addrs, 3)})
	g.Run()
	if peak > 3 {
		t.Fatalf("peak outstanding = %d, want <= MLP=3", peak)
	}
}

type hookMem struct {
	latency sim.Time
	onIssue func()
	onDone  func()
}

func (m *hookMem) AccessH(src *sim.Actor, va uint64, write bool, tc *vm.TransCache, h sim.Handler, arg uint64) {
	m.onIssue()
	src.After(m.latency, hookDone{m, h}, arg)
}

// hookDone runs the hook's completion callback before the warp's handler.
type hookDone struct {
	m *hookMem
	h sim.Handler
}

func (d hookDone) OnEvent(arg uint64) {
	d.m.onDone()
	d.h.OnEvent(arg)
}

func TestTLBChargesWalks(t *testing.T) {
	run := func(withTLB bool) (sim.Time, Stats) {
		eng := sim.New()
		mem := &fakeMem{latency: 10}
		cfg := smallConfig()
		cfg.SMs = 1
		if withTLB {
			tc := tlb.Config{Entries: 2, WalkLatencyCycles: 500}
			cfg.TLB = &tc
		}
		g := New(eng, mem, cfg)
		// 8 accesses across 8 distinct pages: a 2-entry TLB misses on all.
		addrs := make([]Access, 8)
		for i := range addrs {
			addrs[i] = Access{VA: uint64(i) * 4096}
		}
		g.Launch([]WarpProgram{phasesOf(1, 0, addrs, 1)})
		return g.Run(), g.Stats()
	}
	without, _ := run(false)
	with, st := run(true)
	if st.TLBMisses != 8 {
		t.Fatalf("TLBMisses = %d, want 8", st.TLBMisses)
	}
	if with < without+8*500 {
		t.Fatalf("TLB run ended at %d, want >= %d (+8 walks)", with, without+8*500)
	}
}

func TestTLBHitsAreFree(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{latency: 10}
	cfg := smallConfig()
	cfg.SMs = 1
	tc := tlb.Config{Entries: 8, WalkLatencyCycles: 500}
	cfg.TLB = &tc
	g := New(eng, mem, cfg)
	// Same page every time: one walk, then hits.
	addrs := make([]Access, 16)
	for i := range addrs {
		addrs[i] = Access{VA: uint64(i) * 128} // one 4 kB page
	}
	g.Launch([]WarpProgram{phasesOf(1, 0, addrs, 1)})
	end := g.Run()
	st := g.Stats()
	if st.TLBMisses != 1 || st.TLBHits != 15 {
		t.Fatalf("TLB hits/misses = %d/%d, want 15/1", st.TLBHits, st.TLBMisses)
	}
	if end > 1200 {
		t.Fatalf("end = %d; repeated hits should avoid walk stalls", end)
	}
}

func TestConfigValidatesTLB(t *testing.T) {
	cfg := smallConfig()
	bad := tlb.Config{Entries: 0}
	cfg.TLB = &bad
	if cfg.Validate() == nil {
		t.Fatal("invalid TLB config accepted")
	}
}

// TestReleasedGPURunsLikeNew: a GPU built right after another released its
// SMs — L1s warm and dirty, warp contexts finished, counters set, TLBs —
// runs a workload with more warps than contexts exactly like a GPU built
// with the pool emptied first: the same finish time, counters and memory
// traffic. The rounds change the SM count, the contexts per SM, the L1 and
// the TLB, so SMs are reused, dropped and added, L1s reused and replaced.
func TestReleasedGPURunsLikeNew(t *testing.T) {
	run := func(cfg Config) (*GPU, sim.Time, Stats, fakeMem) {
		mem := &fakeMem{latency: 50}
		g := New(sim.New(), mem, cfg)
		var progs []WarpProgram
		for w := range 3 * cfg.SMs * cfg.WarpsPerSM {
			addrs := []Access{{VA: uint64(w%5) * 128}, {VA: uint64(w) * 4096, Write: w%3 == 0}, {VA: 1 << 20}}
			progs = append(progs, phasesOf(1+w%4, sim.Time(w%7), addrs, 2))
		}
		g.Launch(progs)
		end := g.Run()
		return g, end, g.Stats(), *mem
	}
	tlbCfg := tlb.Config{Entries: 4, WalkLatencyCycles: 30}
	cfgs := []Config{smallConfig(), smallConfig(), smallConfig()}
	cfgs[1].SMs, cfgs[1].WarpsPerSM, cfgs[1].TLB, cfgs[1].PageSize = 3, 2, &tlbCfg, 4096
	cfgs[2].SMs, cfgs[2].L1 = 1, cache.Config{SizeBytes: 8192, LineBytes: 128, Ways: 8}
	for round := range 2 * len(cfgs) {
		cfg := cfgs[round%len(cfgs)]
		g, end, st, mem := run(cfg)
		for spares.Get() != nil {
		}
		_, wantEnd, wantSt, wantMem := run(cfg)
		if end != wantEnd || st != wantSt || mem != wantMem {
			t.Fatalf("round %d: end %d, stats %+v, memory %+v; a new GPU: %d, %+v, %+v",
				round, end, st, mem, wantEnd, wantSt, wantMem)
		}
		g.Release()
	}
}
