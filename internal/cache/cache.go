// Package cache provides the on-chip cache mechanisms used by the GPU
// model: set-associative tag arrays with LRU replacement, and miss-status
// holding register (MSHR) files with request merging.
//
// These are mechanisms only. Policy — write-evict L1s, the memory-side L2,
// MSHR backpressure — is composed by package memsys, mirroring the paper's
// simulated GTX-480-like hierarchy (16 kB L1 per SM, 128 kB memory-side L2
// per DRAM channel, 128 MSHRs per L2 slice).
package cache

import (
	"fmt"
	"math/rand"
)

// Replacement selects the victim policy within a set.
type Replacement int

// Replacement policies. LRU is the paper's configuration; FIFO and Random
// exist for the replacement ablation bench.
const (
	LRU Replacement = iota
	FIFO
	Random
)

func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// Config describes a set-associative cache.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line (block) size
	Ways      int // associativity
	// Replace selects the victim policy (default LRU).
	Replace Replacement
	// Seed drives Random replacement deterministically.
	Seed int64
}

// Validate reports an error if the geometry is not realizable.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0:
		return fmt.Errorf("cache: SizeBytes = %d, must be positive", c.SizeBytes)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: LineBytes = %d, must be a positive power of two", c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache: Ways = %d, must be positive", c.Ways)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: SizeBytes %d not divisible by LineBytes*Ways = %d", c.SizeBytes, c.LineBytes*c.Ways)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// HitRate reports hits/(hits+misses), or 0 when idle.
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

type way struct {
	tag   uint64
	valid bool
	dirty bool
}

// Cache is a set-associative tag array with true-LRU replacement. Within a
// set, ways are kept in recency order (index 0 = MRU), which is cheap for
// the small associativities modeled here.
type Cache struct {
	cfg      Config
	sets     [][]way
	setMask  uint64
	lineBits uint
	stats    Stats
	rng      *rand.Rand // Random replacement only
}

// New returns a cache for cfg, panicking on invalid geometry (a programming
// error, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	sets := make([][]way, nsets)
	backing := make([]way, nsets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		setMask:  uint64(nsets - 1),
		lineBits: uint(log2(cfg.LineBytes)),
	}
	if cfg.Replace == Random {
		c.rng = rand.New(rand.NewSource(cfg.Seed + 1))
	}
	return c
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Line returns the line address (byte address with offset bits stripped)
// for a byte address.
func (c *Cache) Line(addr uint64) uint64 { return addr >> c.lineBits }

func (c *Cache) index(line uint64) (set []way, tag uint64) {
	return c.sets[line&c.setMask], line >> 0 // full line address as tag; set bits are redundant but harmless
}

// Lookup probes for addr and promotes the line to MRU on a hit. If write is
// true and the line is present, it is marked dirty.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	line := c.Line(addr)
	set, tag := c.index(line)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			if write {
				set[i].dirty = true
			}
			if c.cfg.Replace == LRU {
				w := set[i]
				copy(set[1:i+1], set[:i])
				set[0] = w
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Victim describes a line displaced by Insert.
type Victim struct {
	LineAddr uint64
	Dirty    bool
	Valid    bool
}

// Insert fills the line containing addr, evicting the LRU way if the set is
// full. The returned Victim is Valid when a live line was displaced and
// Dirty when that line must be written back.
func (c *Cache) Insert(addr uint64, dirty bool) Victim {
	line := c.Line(addr)
	set, tag := c.index(line)
	// If already present (e.g. a racing fill), refresh in place.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			w := set[i]
			w.dirty = w.dirty || dirty
			copy(set[1:i+1], set[:i])
			set[0] = w
			return Victim{}
		}
	}
	// Pick the victim slot. For LRU and FIFO the tail is the victim (the
	// difference is whether Lookup promotes); Random picks any way, but
	// prefers an invalid one.
	victimIdx := len(set) - 1
	if c.cfg.Replace == Random {
		victimIdx = c.rng.Intn(len(set))
		for i := range set {
			if !set[i].valid {
				victimIdx = i
				break
			}
		}
	}
	v := set[victimIdx]
	var out Victim
	if v.valid {
		out = Victim{LineAddr: v.tag, Dirty: v.dirty, Valid: true}
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
		}
	}
	copy(set[1:victimIdx+1], set[:victimIdx])
	set[0] = way{tag: tag, valid: true, dirty: dirty}
	return out
}

// Invalidate drops the line containing addr if present, reporting whether it
// was present and dirty. Used for write-evict L1 policy.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	line := c.Line(addr)
	set, tag := c.index(line)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			dirty = set[i].dirty
			copy(set[i:], set[i+1:])
			set[len(set)-1] = way{}
			return true, dirty
		}
	}
	return false, false
}
