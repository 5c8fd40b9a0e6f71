// Package tlb models per-SM translation lookaside buffers. The paper's
// substrate (GPGPU-Sim) does not charge translation costs, but its 4 kB
// placement granularity interacts with real GPUs' small TLB reach (the
// related work it cites, Gerofi et al. [16], studies exactly this on Xeon
// Phi). Modelling the TLB turns the OS page-size choice into a true
// tradeoff the FigTLB extension experiment can measure: larger pages
// extend TLB reach (fewer walk stalls) but blur page-granularity hotness,
// hurting oracle/annotated placement precision.
package tlb

import "fmt"

// Config sizes a TLB.
type Config struct {
	// Entries is the number of translations held (fully associative, LRU).
	Entries int
	// WalkLatencyCycles is charged to an access that misses (the page
	// table walk through the memory hierarchy, simplified to a constant).
	WalkLatencyCycles int
}

// DefaultConfig is a modest GPU L1 TLB: 64 entries, 300-cycle walks.
func DefaultConfig() Config { return Config{Entries: 64, WalkLatencyCycles: 300} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("tlb: Entries = %d, must be positive", c.Entries)
	}
	if c.WalkLatencyCycles < 0 {
		return fmt.Errorf("tlb: WalkLatencyCycles = %d, negative", c.WalkLatencyCycles)
	}
	return nil
}

// Stats counts TLB activity.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// HitRate reports hits/(hits+misses), 0 when idle.
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// TLB is a fully-associative, true-LRU translation cache over virtual page
// numbers. The simulator's page table is flat, so entries hold only the
// vpage tag; what matters is the hit/miss timing, not the translation
// payload.
type TLB struct {
	cfg Config
	// order holds vpages in recency order, index 0 = MRU. Fully
	// associative TLBs are small (tens of entries), so linear scans beat
	// map overhead.
	order []uint64
	stats Stats
}

// New builds a TLB; it panics on invalid configuration.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &TLB{cfg: cfg, order: make([]uint64, 0, cfg.Entries)}
}

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// Lookup probes for vpage, promoting it on a hit. On a miss the entry is
// installed (the walk always refills), evicting the LRU translation.
// It reports whether the probe hit.
func (t *TLB) Lookup(vpage uint64) bool {
	for i, v := range t.order {
		if v == vpage {
			copy(t.order[1:i+1], t.order[:i])
			t.order[0] = vpage
			t.stats.Hits++
			return true
		}
	}
	t.stats.Misses++
	if len(t.order) < t.cfg.Entries {
		t.order = append(t.order, 0)
	}
	copy(t.order[1:], t.order[:len(t.order)-1])
	t.order[0] = vpage
	return false
}

// Invalidate drops a translation (e.g. after migration remaps the page).
func (t *TLB) Invalidate(vpage uint64) bool {
	for i, v := range t.order {
		if v == vpage {
			t.order = append(t.order[:i], t.order[i+1:]...)
			return true
		}
	}
	return false
}
