package migrate

import "hetsim/internal/vm"

// Policy classifies the epoch's page activity and plans moves through a
// View. Implementations must be deterministic: the simulator's output is
// byte-compared across reruns.
type Policy interface {
	Name() string
	// Epoch plans and executes this epoch's moves via v.Move, within
	// v.Remaining() budget.
	Epoch(v *View)
}

// View is one epoch's window onto the system, handed to the Policy. Moves
// execute immediately (View.Move), so capacity queries through Space
// reflect earlier moves in the same pass.
type View struct {
	// Delta[vpage] is the page's DRAM access count this epoch.
	Delta []uint64
	// Order lists the pools fastest-first (SBIT bandwidth order); Rank
	// gives a pool's index in it. Promotion moves a page toward Order[0].
	Order []vm.ZoneID
	// Space answers residency and capacity queries (PageZone, ZoneFree,
	// ZoneUsed, ZoneCapacity).
	Space *vm.Space
	Cfg   Config

	eng    *Engine
	budget int
	// scanned marks the engine's pools as filled for this pass; rescan
	// asks for a fresh scan once the pending mappings the last scan could
	// not see have been committed (see pool).
	scanned, rescan bool
}

// Remaining reports how many more pages may move this epoch.
func (v *View) Remaining() int { return v.budget }

// Span is the page-iteration bound: every mapped page number is below it.
// It covers the full page table, not just pages with access history — an
// idle page must still be a demotion candidate.
func (v *View) Span() uint64 {
	n := uint64(len(v.Delta))
	if sp := v.Space.TableSpan(); sp > n {
		n = sp
	}
	return n
}

// DeltaOf returns vpage's DRAM access count this epoch (zero for pages
// beyond the recorded counter table).
func (v *View) DeltaOf(vpage uint64) uint64 {
	if vpage < uint64(len(v.Delta)) {
		return v.Delta[vpage]
	}
	return 0
}

// Rank returns z's position in the bandwidth order (0 = fastest), or -1
// for an unknown zone.
func (v *View) Rank(z vm.ZoneID) int {
	if int(z) >= len(v.eng.rank) {
		return -1
	}
	return v.eng.rank[z]
}

// Eligible reports whether vpage may move this epoch: pages migrated
// within the cooldown window (including earlier in this same pass) are
// left to settle.
func (v *View) Eligible(vpage uint64) bool { return v.eng.eligible(vpage) }

// Move migrates vpage to pool z, charging invalidation + copy traffic and
// locking the page. It returns false without consuming budget when the
// page is not mapped, already resident in z, the budget is spent, or the
// remap fails (destination full).
func (v *View) Move(vpage uint64, to vm.ZoneID) bool {
	if v.budget <= 0 {
		return false
	}
	from, ok := v.Space.PageZone(vpage)
	if !ok || from == to {
		return false
	}
	if !v.eng.move(vpage, from, to) {
		return false
	}
	v.budget--
	if v.Rank(to) < v.Rank(from) {
		v.eng.stats.Promotions++
	} else {
		v.eng.stats.Demotions++
	}
	return true
}

// Skip records a promotion candidate abandoned for lack of a cold-enough
// victim (the hysteresis guard) — the Stats.Skipped counter.
func (v *View) Skip() { v.eng.stats.Skipped++ }

// pool returns the pages of pool z that were mapped and eligible when the
// page table was last scanned, in ascending page order. One scan serves the
// whole pass: a page moved since is on cooldown, and callers re-check
// Eligible, so the stale entries drop out. The scan cannot see mappings
// still pending a window barrier; the first Remap of the pass commits them
// (vm.Space.Remap flushes), and the next call then rescans, as a fresh
// per-pair scan would.
func (v *View) pool(z vm.ZoneID) []uint64 {
	if !v.scanned || v.rescan && v.Space.PendingMappings() == 0 {
		v.scan()
	}
	return v.eng.pools[z]
}

// scan groups every mapped, eligible page below Span by pool.
func (v *View) scan() {
	pools := &v.eng.pools
	for z := range pools {
		pools[z] = pools[z][:0]
	}
	for vp, span := uint64(0), v.Span(); vp < span; vp++ {
		if z, ok := v.Space.PageZone(vp); ok && v.Eligible(vp) {
			pools[z] = append(pools[z], vp)
		}
	}
	v.scanned, v.rescan = true, v.Space.PendingMappings() > 0
}

// pageHeat is one candidate page and the heat it is ranked by.
type pageHeat struct {
	vpage uint64
	heat  uint64
}

// heatHeap is a binary heap of candidate pages in the strict total order
// on (heat, vpage): hottest first when hot is set, coldest first otherwise,
// and the lower page number first among equal heats either way. Building
// it is O(n) and each pop O(log n), so taking the first k of n candidates
// costs O(n + k log n) and yields exactly the first k of the sorted list.
type heatHeap struct {
	ps  []pageHeat
	hot bool
}

// reset empties the heap, keeping its storage, and sets its direction.
// Push the candidates, then call init.
func (h *heatHeap) reset(hot bool) {
	h.ps = h.ps[:0]
	h.hot = hot
}

func (h *heatHeap) push(vpage, heat uint64) { h.ps = append(h.ps, pageHeat{vpage, heat}) }

// init establishes the heap order over the pushed candidates.
func (h *heatHeap) init() {
	for i := len(h.ps)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *heatHeap) len() int { return len(h.ps) }

// peek returns the first candidate; pop removes and returns it.
func (h *heatHeap) peek() pageHeat { return h.ps[0] }

func (h *heatHeap) pop() pageHeat {
	top := h.ps[0]
	n := len(h.ps) - 1
	h.ps[0] = h.ps[n]
	h.ps = h.ps[:n]
	h.down(0)
	return top
}

// before is the heap order.
func (h *heatHeap) before(a, b pageHeat) bool {
	if a.heat != b.heat {
		return (a.heat > b.heat) == h.hot
	}
	return a.vpage < b.vpage
}

func (h *heatHeap) down(i int) {
	ps := h.ps
	for {
		c := 2*i + 1
		if c >= len(ps) {
			return
		}
		if r := c + 1; r < len(ps) && h.before(ps[r], ps[c]) {
			c = r
		}
		if !h.before(ps[c], ps[i]) {
			return
		}
		ps[i], ps[c] = ps[c], ps[i]
		i = c
	}
}

// counterPolicy is the epoch-diff access-counter classifier, the K-pool
// generalization of the original two-zone engine: for each adjacent tier
// pair (fastest pair first), pages in the lower tier whose count this
// epoch clears MinHeat are promoted one hop up, displacing the upper
// tier's coldest pages when it is full — but only when the candidate
// clearly dominates its victim (hysteresis). A page climbs a multi-tier
// chain (CXL → DDR → HBM) one hop per epoch.
type counterPolicy struct{}

func (counterPolicy) Name() string { return PolicyCounter }

func (p counterPolicy) Epoch(v *View) {
	hot, cold := &v.eng.hot, &v.eng.cold
	for pi := 0; pi+1 < len(v.Order) && v.Remaining() > 0; pi++ {
		upper, lower := v.Order[pi], v.Order[pi+1]
		hot.reset(true)
		for _, vp := range v.pool(lower) {
			if d := v.DeltaOf(vp); d >= v.Cfg.MinHeat && v.Eligible(vp) {
				hot.push(vp, d)
			}
		}
		hot.init()
		cold.reset(false)
		for _, vp := range v.pool(upper) {
			if v.Eligible(vp) {
				cold.push(vp, v.DeltaOf(vp))
			}
		}
		cold.init()
		exchange(v, hot, cold, upper, lower)
	}
}

// exchange promotes hot pages into upper within budget, demoting upper's
// coldest pages to lower when it is full. cold pops coldest-first and hot
// hottest-first, so the first failed dominance check ends the pair's pass
// — no later pair can dominate either. Without the hysteresis guard
// equal-heat pages would swap back and forth every epoch.
func exchange(v *View, hot, cold *heatHeap, upper, lower vm.ZoneID) {
	for hot.len() > 0 {
		h := hot.pop()
		if v.Remaining() <= 0 {
			return
		}
		if v.Space.ZoneFree(upper) < 1 {
			if cold.len() == 0 ||
				float64(h.heat) < v.Cfg.hysteresis()*float64(cold.peek().heat)+float64(v.Cfg.MinHeat) {
				v.Skip()
				return
			}
			v.Move(cold.pop().vpage, lower)
			if v.Remaining() <= 0 {
				return
			}
		}
		v.Move(h.vpage, upper)
	}
}

// ewmaPolicy is the history classifier: per-page exponentially-weighted
// heat plus per-pool occupancy watermarks, after the hot/cold tracking of
// dynamic tiering systems ("Dynamic Page Placement on Real Persistent
// Memory Systems"). Each epoch it first drains capacity-bounded pools
// filled above HighWatermark down to LowWatermark by demoting their
// coldest pages one hop down the bandwidth order, then promotes pages
// whose smoothed heat clears MinHeat one hop up while the tier above has
// headroom (or via a hysteresis swap with its coldest page when full).
type ewmaPolicy struct {
	heat []float64
}

func (*ewmaPolicy) Name() string { return PolicyEWMA }

func (p *ewmaPolicy) Epoch(v *View) {
	// Decay history and fold in this epoch's counts. The table spans every
	// mapped page, so idle pages carry (decaying) heat entries too.
	if span := v.Span(); span > uint64(len(p.heat)) {
		p.heat = append(p.heat, make([]float64, span-uint64(len(p.heat)))...)
	}
	a := v.Cfg.EWMAAlpha
	for vp := range p.heat {
		p.heat[vp] = a*float64(v.DeltaOf(uint64(vp))) + (1-a)*p.heat[vp]
	}

	p.drainWatermarks(v)
	p.promote(v)
}

// rank loads h with the eligible pages of zone z, keyed by their quantized
// smoothed heat (ties break by page number); hot keeps only pages whose
// heat clears MinHeat and orders them hottest first, else every page
// coldest first. Pages beyond the heat table, which a mid-pass flush can
// map (see View.pool), have no heat until the next epoch and are left out.
func (p *ewmaPolicy) rank(v *View, h *heatHeap, z vm.ZoneID, hot bool) {
	h.reset(hot)
	for _, vp := range v.pool(z) {
		if vp < uint64(len(p.heat)) && v.Eligible(vp) && (!hot || p.heat[vp] >= float64(v.Cfg.MinHeat)) {
			h.push(vp, uint64(p.heat[vp]*1024))
		}
	}
	h.init()
}

// drainWatermarks demotes the coldest pages of over-full pools one hop
// down the bandwidth order until each pool is back at its low watermark.
func (p *ewmaPolicy) drainWatermarks(v *View) {
	for pi := 0; pi+1 < len(v.Order) && v.Remaining() > 0; pi++ {
		z, below := v.Order[pi], v.Order[pi+1]
		cap := v.Space.ZoneCapacity(z)
		if cap == vm.Unlimited || cap <= 0 {
			continue
		}
		if float64(v.Space.ZoneUsed(z)) <= v.Cfg.HighWatermark*float64(cap) {
			continue
		}
		lowMark := int(v.Cfg.LowWatermark * float64(cap))
		cold := &v.eng.cold
		p.rank(v, cold, z, false)
		for cold.len() > 0 && v.Space.ZoneUsed(z) > lowMark && v.Remaining() > 0 {
			v.Move(cold.pop().vpage, below)
		}
	}
}

// promote climbs hot pages one hop up the order: into free headroom below
// the high watermark when available, else by swapping with the upper
// pool's coldest page under the hysteresis guard.
func (p *ewmaPolicy) promote(v *View) {
	minHeat := float64(v.Cfg.MinHeat)
	hot, cold := &v.eng.hot, &v.eng.cold
	for pi := 0; pi+1 < len(v.Order) && v.Remaining() > 0; pi++ {
		upper, lower := v.Order[pi], v.Order[pi+1]
		p.rank(v, hot, lower, true)
		p.rank(v, cold, upper, false)
		for hot.len() > 0 {
			h := hot.pop()
			if v.Remaining() <= 0 {
				return
			}
			if p.headroom(v, upper) {
				v.Move(h.vpage, upper)
				continue
			}
			// Full (or at the watermark): swap with the coldest page,
			// hysteresis-guarded. Both heaps pop in order, so the first
			// failed dominance check ends the pair's pass.
			if cold.len() == 0 ||
				float64(h.heat) < v.Cfg.hysteresis()*float64(cold.peek().heat)+minHeat*1024 {
				v.Skip()
				break
			}
			v.Move(cold.pop().vpage, lower)
			if v.Remaining() <= 0 {
				return
			}
			v.Move(h.vpage, upper)
		}
	}
}

// headroom reports whether pool z can take one more page without crossing
// its high watermark (unlimited pools always can, given a free slot).
func (p *ewmaPolicy) headroom(v *View, z vm.ZoneID) bool {
	if v.Space.ZoneFree(z) < 1 {
		return false
	}
	cap := v.Space.ZoneCapacity(z)
	if cap == vm.Unlimited || cap <= 0 {
		return true
	}
	return float64(v.Space.ZoneUsed(z)+1) <= v.Cfg.HighWatermark*float64(cap)
}
