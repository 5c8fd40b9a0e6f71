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
