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

// A way is one word, line<<wayLineShift | wayValid | wayDirty, with the
// full line address as its tag. An invalid way is 0.
const (
	wayValid     = 1
	wayDirty     = 2
	wayLineShift = 2
)

// Cache is a set-associative tag array with true-LRU replacement. Within a
// set, ways are kept in recency order (index 0 = MRU), which is cheap for
// the small associativities modeled here. All ways live in one flat array,
// set i at [i*Ways, (i+1)*Ways), so an 8-way set of one-word ways is one
// 64-byte row.
type Cache struct {
	cfg      Config
	ways     []uint64
	setMask  uint64
	lineBits uint
	stats    Stats
	rng      *rand.Rand // Random replacement only
}

// New returns a cache for cfg, panicking on invalid geometry (a programming
// error, not a runtime condition).
func New(cfg Config) *Cache { return Reuse(nil, cfg) }

// Reuse returns a cache for cfg that simulates exactly like New(cfg). When
// old's tag array can hold cfg's geometry, the cache is old, reset: the
// array resliced and cleared, the counters zeroed, and the generator of a
// Random cache reseeded from cfg.Seed. Otherwise old is dropped and a new
// cache is built. old must not be used afterwards.
func Reuse(old *Cache, cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := old
	if c == nil || cap(c.ways) < nsets*cfg.Ways {
		c = &Cache{ways: make([]uint64, nsets*cfg.Ways)}
	} else {
		c.ways = c.ways[:nsets*cfg.Ways]
		clear(c.ways)
	}
	*c = Cache{
		cfg:      cfg,
		ways:     c.ways,
		setMask:  uint64(nsets - 1),
		lineBits: uint(log2(cfg.LineBytes)),
		rng:      c.rng,
	}
	switch {
	case cfg.Replace != Random:
		c.rng = nil
	case c.rng == nil:
		c.rng = rand.New(rand.NewSource(cfg.Seed + 1))
	default:
		c.rng.Seed(cfg.Seed + 1)
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

// index returns the set holding addr and the valid way word for its line.
// It panics on a line too wide to pack into a way, which would alias
// another line. The addresses a simulation gives its caches, virtual at
// the L1 and channel-local at the L2, lie below vm.ZoneSpan (2^40), far
// inside the limit.
func (c *Cache) index(addr uint64) (set []uint64, key uint64) {
	line := c.Line(addr)
	if line>>(64-wayLineShift) != 0 {
		panic("cache: line address too wide to pack into a way")
	}
	i := int(line&c.setMask) * c.cfg.Ways
	return c.ways[i : i+c.cfg.Ways : i+c.cfg.Ways], line<<wayLineShift | wayValid
}

// Lookup probes for addr and promotes the line to MRU on a hit. If write is
// true and the line is present, it is marked dirty.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	set, key := c.index(addr)
	for i := range set {
		if set[i]&^wayDirty == key {
			if write {
				set[i] |= wayDirty
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
	set, key := c.index(addr)
	w := key
	if dirty {
		w |= wayDirty
	}
	// If already present (e.g. a racing fill), refresh in place.
	for i := range set {
		if set[i]&^wayDirty == key {
			w |= set[i] // a dirty line stays dirty
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
			if set[i]&wayValid == 0 {
				victimIdx = i
				break
			}
		}
	}
	v := set[victimIdx]
	var out Victim
	if v&wayValid != 0 {
		out = Victim{LineAddr: v >> wayLineShift, Dirty: v&wayDirty != 0, Valid: true}
		c.stats.Evictions++
		if out.Dirty {
			c.stats.Writebacks++
		}
	}
	copy(set[1:victimIdx+1], set[:victimIdx])
	set[0] = w
	return out
}

// Invalidate drops the line containing addr if present, reporting whether it
// was present and dirty. Used for write-evict L1 policy.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, key := c.index(addr)
	for i := range set {
		if set[i]&^wayDirty == key {
			dirty = set[i]&wayDirty != 0
			copy(set[i:], set[i+1:])
			set[len(set)-1] = 0
			return true, dirty
		}
	}
	return false, false
}
