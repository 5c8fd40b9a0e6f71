package tlb

import (
	"testing"
	"testing/quick"
)

func TestConfig(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if (Config{Entries: 0, WalkLatencyCycles: 1}).Validate() == nil {
		t.Fatal("zero entries validated")
	}
	if (Config{Entries: 1, WalkLatencyCycles: -1}).Validate() == nil {
		t.Fatal("negative walk validated")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{})
}

func TestMissThenHit(t *testing.T) {
	tl := New(Config{Entries: 4, WalkLatencyCycles: 100})
	if tl.Lookup(7) {
		t.Fatal("cold lookup hit")
	}
	if !tl.Lookup(7) {
		t.Fatal("second lookup missed (walk must install)")
	}
	s := tl.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v", s.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	tl := New(Config{Entries: 2, WalkLatencyCycles: 1})
	tl.Lookup(1)
	tl.Lookup(2)
	tl.Lookup(1) // promote 1; LRU is now 2
	tl.Lookup(3) // evicts 2
	if !tl.Lookup(1) {
		t.Fatal("page 1 evicted despite being MRU")
	}
	if tl.Lookup(2) {
		t.Fatal("page 2 survived eviction")
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	tl := New(Config{Entries: 4, WalkLatencyCycles: 1})
	tl.Lookup(1)
	tl.Lookup(2)
	if !tl.Invalidate(1) {
		t.Fatal("Invalidate missed present entry")
	}
	if tl.Invalidate(1) {
		t.Fatal("double invalidate")
	}
	if tl.Lookup(1) {
		t.Fatal("invalidated entry still hits")
	}
	// Invalidating every present entry (page 2 and the re-installed 1)
	// flushes the TLB.
	if !tl.Invalidate(2) || !tl.Invalidate(1) || len(tl.order) != 0 {
		t.Fatalf("entries left after invalidating pages 1 and 2: %v", tl.order)
	}
	if tl.Lookup(2) {
		t.Fatal("entry survived flush")
	}
}

func TestReach(t *testing.T) {
	// Working set within the entry count: after warmup, everything hits.
	tl := New(Config{Entries: 16, WalkLatencyCycles: 1})
	for p := uint64(0); p < 16; p++ {
		tl.Lookup(p)
	}
	for round := 0; round < 10; round++ {
		for p := uint64(0); p < 16; p++ {
			if !tl.Lookup(p) {
				t.Fatalf("page %d missed within reach", p)
			}
		}
	}
	// Working set of 2x the entries with round-robin access: LRU thrashes.
	tl2 := New(Config{Entries: 16, WalkLatencyCycles: 1})
	for round := 0; round < 5; round++ {
		for p := uint64(0); p < 32; p++ {
			tl2.Lookup(p)
		}
	}
	if hr := tl2.Stats().HitRate(); hr > 0.05 {
		t.Fatalf("cyclic over-capacity hit rate = %.2f, want ~0 (LRU worst case)", hr)
	}
}

// Property: occupancy never exceeds capacity, and a just-looked-up page
// always hits immediately after.
func TestPropertyTLB(t *testing.T) {
	f := func(pagesRaw []uint8) bool {
		tl := New(Config{Entries: 8, WalkLatencyCycles: 1})
		for _, p := range pagesRaw {
			tl.Lookup(uint64(p))
			if len(tl.order) > 8 {
				return false
			}
			if !tl.Lookup(uint64(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	tl := New(DefaultConfig())
	for i := 0; i < b.N; i++ {
		tl.Lookup(uint64(i % 80))
	}
}
