package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func l1Config() Config { return Config{SizeBytes: 16 << 10, LineBytes: 128, Ways: 4} }
func l2Config() Config { return Config{SizeBytes: 128 << 10, LineBytes: 128, Ways: 8} }

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"l1", l1Config(), true},
		{"l2", l2Config(), true},
		{"zero", Config{}, false},
		{"non-pow2 line", Config{SizeBytes: 4096, LineBytes: 96, Ways: 4}, false},
		{"indivisible", Config{SizeBytes: 1000, LineBytes: 128, Ways: 4}, false},
		{"non-pow2 sets", Config{SizeBytes: 3 * 128 * 4, LineBytes: 128, Ways: 4}, false},
		{"zero ways", Config{SizeBytes: 4096, LineBytes: 128, Ways: 0}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok != (err == nil) {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(l1Config())
	if c.Lookup(0x1000, false) {
		t.Fatal("cold lookup hit")
	}
	c.Insert(0x1000, false)
	if !c.Lookup(0x1000, false) {
		t.Fatal("lookup after insert missed")
	}
	if !c.Lookup(0x1040, false) {
		t.Fatal("same-line different-offset lookup missed")
	}
	if c.Lookup(0x1080, false) {
		t.Fatal("next line hit spuriously")
	}
}

func TestLRUEviction(t *testing.T) {
	// 4-way cache: fill one set with 5 distinct lines; the first inserted
	// (LRU) must be the victim.
	cfg := l1Config()
	c := New(cfg)
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	stride := uint64(nsets * cfg.LineBytes) // same set each time
	for i := 0; i < 4; i++ {
		v := c.Insert(uint64(i)*stride, false)
		if v.Valid {
			t.Fatalf("insert %d evicted %+v before set was full", i, v)
		}
	}
	v := c.Insert(4*stride, false)
	if !v.Valid {
		t.Fatal("fifth insert into 4-way set evicted nothing")
	}
	if got, want := v.LineAddr, c.Line(0); got != want {
		t.Fatalf("victim line = %#x, want %#x (the LRU)", got, want)
	}
}

func TestLookupPromotesMRU(t *testing.T) {
	cfg := l1Config()
	c := New(cfg)
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	stride := uint64(nsets * cfg.LineBytes)
	for i := 0; i < 4; i++ {
		c.Insert(uint64(i)*stride, false)
	}
	// Touch line 0 so line 1 becomes LRU.
	if !c.Lookup(0, false) {
		t.Fatal("line 0 missing")
	}
	v := c.Insert(4*stride, false)
	if got, want := v.LineAddr, c.Line(stride); got != want {
		t.Fatalf("victim = %#x, want %#x (line 1 after promoting line 0)", got, want)
	}
}

func TestDirtyWriteback(t *testing.T) {
	cfg := l1Config()
	c := New(cfg)
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	stride := uint64(nsets * cfg.LineBytes)
	c.Insert(0, true) // dirty fill
	for i := 1; i < 5; i++ {
		c.Insert(uint64(i)*stride, false)
	}
	if got := c.Stats().Writebacks; got != 1 {
		t.Fatalf("Writebacks = %d, want 1", got)
	}
}

func TestLookupWriteMarksDirty(t *testing.T) {
	cfg := l1Config()
	c := New(cfg)
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	stride := uint64(nsets * cfg.LineBytes)
	c.Insert(0, false)
	c.Lookup(0, true) // write hit marks dirty
	for i := 1; i < 5; i++ {
		c.Insert(uint64(i)*stride, false)
	}
	if got := c.Stats().Writebacks; got != 1 {
		t.Fatalf("Writebacks = %d, want 1 after write-hit dirtied line", got)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(l1Config())
	c.Insert(0x2000, true)
	present, dirty := c.Invalidate(0x2000)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v, %v), want (true, true)", present, dirty)
	}
	if c.Lookup(0x2000, false) {
		t.Fatal("line still present after Invalidate")
	}
	present, _ = c.Invalidate(0x2000)
	if present {
		t.Fatal("second Invalidate reported present")
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := New(l1Config())
	c.Insert(0x3000, false)
	v := c.Insert(0x3000, true) // re-fill same line, now dirty
	if v.Valid {
		t.Fatalf("re-insert evicted %+v", v)
	}
	_, dirty := c.Invalidate(0x3000)
	if !dirty {
		t.Fatal("dirty bit lost on refresh")
	}
}

func TestHitRate(t *testing.T) {
	c := New(l1Config())
	c.Lookup(0, false) // miss
	c.Insert(0, false)
	c.Lookup(0, false) // hit
	c.Lookup(0, false) // hit
	if got := c.Stats().HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("HitRate = %v, want 2/3", got)
	}
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("HitRate of zero stats not 0")
	}
}

// Property: a working set no larger than one way-worth per set never
// evicts (no conflict beyond capacity).
func TestPropertySmallWorkingSetAlwaysHits(t *testing.T) {
	cfg := l1Config()
	f := func(seed int64) bool {
		c := New(cfg)
		rng := rand.New(rand.NewSource(seed))
		// Working set = exactly the cache capacity in distinct lines.
		nlines := cfg.SizeBytes / cfg.LineBytes
		for i := 0; i < nlines; i++ {
			c.Insert(uint64(i*cfg.LineBytes), false)
		}
		// All subsequent lookups within the set must hit.
		for i := 0; i < 1000; i++ {
			addr := uint64(rng.Intn(nlines) * cfg.LineBytes)
			if !c.Lookup(addr, false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: eviction count equals inserts minus capacity (once warm) for
// distinct lines, regardless of address pattern.
func TestPropertyEvictionConservation(t *testing.T) {
	cfg := Config{SizeBytes: 4096, LineBytes: 128, Ways: 2}
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		c := New(cfg)
		rng := rand.New(rand.NewSource(seed))
		seen := make(map[uint64]bool)
		inserted := 0
		for i := 0; i < n; i++ {
			line := uint64(rng.Intn(4096))
			if seen[line] {
				continue
			}
			seen[line] = true
			c.Insert(line*128, false)
			inserted++
		}
		resident := inserted - int(c.Stats().Evictions)
		return resident >= 0 && resident <= cfg.SizeBytes/cfg.LineBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(l2Config())
	c.Insert(0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(0, false)
	}
}

func BenchmarkLookupMissInsert(b *testing.B) {
	c := New(l2Config())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i) * 128
		if !c.Lookup(addr, false) {
			c.Insert(addr, false)
		}
	}
}

func TestFIFODoesNotPromote(t *testing.T) {
	cfg := Config{SizeBytes: 4 * 128, LineBytes: 128, Ways: 4, Replace: FIFO}
	c := New(cfg)
	for i := 0; i < 4; i++ {
		c.Insert(uint64(i)*512, false) // one set (stride = sets*line = 128)
	}
	// Touch line 0 repeatedly; under FIFO it must still be the victim.
	for i := 0; i < 10; i++ {
		if !c.Lookup(0, false) {
			t.Fatal("line 0 missing")
		}
	}
	v := c.Insert(4*512, false)
	if !v.Valid || v.LineAddr != c.Line(0) {
		t.Fatalf("FIFO victim = %+v, want the oldest line 0", v)
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	cfg := Config{SizeBytes: 4 * 128, LineBytes: 128, Ways: 4, Replace: Random, Seed: 7}
	run := func() []uint64 {
		c := New(cfg)
		var victims []uint64
		for i := 0; i < 32; i++ {
			v := c.Insert(uint64(i)*512, false)
			if v.Valid {
				victims = append(victims, v.LineAddr)
			}
		}
		return victims
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("victim streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random replacement not deterministic for equal seeds")
		}
	}
}

func TestRandomPrefersInvalidWays(t *testing.T) {
	cfg := Config{SizeBytes: 4 * 128, LineBytes: 128, Ways: 4, Replace: Random, Seed: 1}
	c := New(cfg)
	for i := 0; i < 4; i++ {
		if v := c.Insert(uint64(i)*512, false); v.Valid {
			t.Fatalf("insert %d evicted %+v with invalid ways available", i, v)
		}
	}
}

func TestReplacementStrings(t *testing.T) {
	for r, want := range map[Replacement]string{LRU: "LRU", FIFO: "FIFO", Random: "Random", Replacement(9): "Replacement(9)"} {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
}

// LRU must beat FIFO and Random on a reuse-heavy pattern.
func TestLRUWinsOnReuse(t *testing.T) {
	pattern := func(rep Replacement) float64 {
		c := New(Config{SizeBytes: 8 * 1024, LineBytes: 128, Ways: 8, Replace: rep, Seed: 3})
		rng := rand.New(rand.NewSource(11))
		// 80% of accesses to a hot set slightly smaller than the cache,
		// 20% streaming.
		hot := 48
		stream := uint64(1 << 20)
		for i := 0; i < 20000; i++ {
			var addr uint64
			if rng.Float64() < 0.8 {
				addr = uint64(rng.Intn(hot)) * 128
			} else {
				stream += 128
				addr = stream
			}
			if !c.Lookup(addr, false) {
				c.Insert(addr, false)
			}
		}
		return c.Stats().HitRate()
	}
	lru, fifo := pattern(LRU), pattern(FIFO)
	if lru <= fifo {
		t.Fatalf("LRU hit rate %.3f not above FIFO %.3f on reuse pattern", lru, fifo)
	}
}

// refCache is the tag array Cache replaced, one []refWay per set with a
// struct per way, kept as the reference TestCacheMatchesReference checks
// the packed ways against.
type refCache struct {
	cfg      Config
	sets     [][]refWay
	setMask  uint64
	lineBits uint
	stats    Stats
	rng      *rand.Rand
}

type refWay struct {
	tag   uint64
	valid bool
	dirty bool
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	sets := make([][]refWay, nsets)
	backing := make([]refWay, nsets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	c := &refCache{cfg: cfg, sets: sets, setMask: uint64(nsets - 1), lineBits: uint(log2(cfg.LineBytes))}
	if cfg.Replace == Random {
		c.rng = rand.New(rand.NewSource(cfg.Seed + 1))
	}
	return c
}

func (c *refCache) index(addr uint64) ([]refWay, uint64) {
	line := addr >> c.lineBits
	return c.sets[line&c.setMask], line
}

func (c *refCache) Lookup(addr uint64, write bool) bool {
	set, tag := c.index(addr)
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

func (c *refCache) Insert(addr uint64, dirty bool) Victim {
	set, tag := c.index(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			w := set[i]
			w.dirty = w.dirty || dirty
			copy(set[1:i+1], set[:i])
			set[0] = w
			return Victim{}
		}
	}
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
	set[0] = refWay{tag: tag, valid: true, dirty: dirty}
	return out
}

func (c *refCache) Invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			dirty = set[i].dirty
			copy(set[i:], set[i+1:])
			set[len(set)-1] = refWay{}
			return true, dirty
		}
	}
	return false, false
}

// TestCacheMatchesReference runs random Lookup, Insert and Invalidate
// sequences on Cache and refCache under every replacement policy at 1 to
// 16 ways and requires the same results, victims and stats after every
// operation. Addresses come from two ranges, each three times the cache's
// capacity: one at 0 and one ending at 2^40 (vm.ZoneSpan), the top of the
// range a simulation gives its caches.
func TestCacheMatchesReference(t *testing.T) {
	for _, rep := range []Replacement{LRU, FIFO, Random} {
		for ways := 1; ways <= 16; ways++ {
			cfg := Config{SizeBytes: 4 * 128 * ways, LineBytes: 128, Ways: ways, Replace: rep, Seed: int64(ways)}
			checkAgainstReference(t, New(cfg), cfg)
		}
	}
}

// TestReuseMatchesReference: a cache Reuse builds in the tag array of one
// that ran another geometry and policy — valid and dirty lines, counters,
// a Random generator partway through its stream — behaves like a new one,
// against the reference model. A tag array too small for the new geometry
// is replaced.
func TestReuseMatchesReference(t *testing.T) {
	for _, rep := range []Replacement{LRU, FIFO, Random} {
		for ways := 1; ways <= 16; ways++ {
			cfg := Config{SizeBytes: 4 * 128 * ways, LineBytes: 128, Ways: ways, Replace: rep, Seed: int64(ways)}
			for _, prev := range []Config{
				{SizeBytes: 8 * 128 * 16, LineBytes: 128, Ways: 16, Replace: Random, Seed: 99},
				{SizeBytes: 4 * 128 * ways, LineBytes: 128, Ways: ways, Replace: rep, Seed: int64(ways)},
				{SizeBytes: 128, LineBytes: 128, Ways: 1},
			} {
				old := New(prev)
				rng := rand.New(rand.NewSource(int64(ways)))
				for op := 0; op < 500; op++ {
					addr := uint64(rng.Intn(64)) * 128
					old.Insert(addr, rng.Intn(2) == 0)
					old.Lookup(addr+128, true)
				}
				checkAgainstReference(t, Reuse(old, cfg), cfg)
			}
		}
	}
}

// checkAgainstReference drives got, a cache for cfg, and a new reference
// cache with one random Lookup/Insert/Invalidate sequence and fails on the
// first result or counter that differs.
func checkAgainstReference(t *testing.T, got *Cache, cfg Config) {
	t.Helper()
	rep, ways := cfg.Replace, cfg.Ways
	want := newRefCache(cfg)
	rng := rand.New(rand.NewSource(int64(ways)*31 + int64(rep)))
	lines := 3 * 4 * ways
	for op := 0; op < 4000; op++ {
		addr := uint64(rng.Intn(lines))*128 + uint64(rng.Intn(128))
		if rng.Intn(2) == 0 {
			addr += 1<<40 - uint64(lines)*128
		}
		write := rng.Intn(3) == 0
		switch k := rng.Intn(8); {
		case k < 4:
			if g, w := got.Lookup(addr, write), want.Lookup(addr, write); g != w {
				t.Fatalf("%v %d-way op %d: Lookup(%#x, %v) = %v, reference %v", rep, ways, op, addr, write, g, w)
			}
		case k < 7:
			if g, w := got.Insert(addr, write), want.Insert(addr, write); g != w {
				t.Fatalf("%v %d-way op %d: Insert(%#x, %v) = %+v, reference %+v", rep, ways, op, addr, write, g, w)
			}
		default:
			gp, gd := got.Invalidate(addr)
			wp, wd := want.Invalidate(addr)
			if gp != wp || gd != wd {
				t.Fatalf("%v %d-way op %d: Invalidate(%#x) = %v, %v, reference %v, %v", rep, ways, op, addr, gp, gd, wp, wd)
			}
		}
		if got.Stats() != want.stats {
			t.Fatalf("%v %d-way op %d: stats %+v, reference %+v", rep, ways, op, got.Stats(), want.stats)
		}
	}
}

// TestUnpackableLinePanics: a line too wide for a way word would alias a
// narrower line, so the cache refuses it.
func TestUnpackableLinePanics(t *testing.T) {
	c := New(Config{SizeBytes: 64, LineBytes: 1, Ways: 4})
	c.Insert(1<<62-1, true)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of line 2^62 did not panic")
		}
	}()
	c.Insert(1<<62, false)
}
