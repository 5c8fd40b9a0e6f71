package workloads

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hetsim/internal/cache"
	"hetsim/internal/sim"
)

// newGen returns warp warpID's generator over a structure of size bytes,
// one of warps warps, set up as Programs sets it up.
func newGen(p Pattern, size uint64, warpID, warps int) *offsetGen {
	z := p.zipf(size)
	g := new(offsetGen)
	p.generator(g, size, warpID, warps, &z)
	return g
}

// helpers shared with workloads_test.go
func simEngine() *sim.Engine { return sim.New() }
func gpuL1() cache.Config {
	return cache.Config{SizeBytes: 16 << 10, LineBytes: 128, Ways: 4}
}

func TestSequentialPartitionsByWarp(t *testing.T) {
	p := Pattern{Kind: Sequential}
	rng := rand.New(rand.NewSource(1))
	size := uint64(1 * mb)
	g0 := newGen(p, size, 0, 4)
	g1 := newGen(p, size, 1, 4)
	o0 := g0.next(rng)
	o1 := g1.next(rng)
	if o0 != 0 {
		t.Fatalf("warp 0 starts at %d, want 0", o0)
	}
	if o1 != size/4 {
		t.Fatalf("warp 1 starts at %d, want %d", o1, size/4)
	}
	// Sequential advances by one line.
	if g0.next(rng) != LineBytes {
		t.Fatal("sequential did not advance by one line")
	}
}

func TestSequentialWraps(t *testing.T) {
	p := Pattern{Kind: Sequential}
	rng := rand.New(rand.NewSource(1))
	g := newGen(p, 2*LineBytes, 0, 1)
	offs := []uint64{g.next(rng), g.next(rng), g.next(rng)}
	if offs[2] != offs[0] {
		t.Fatalf("2-line structure did not wrap: %v", offs)
	}
}

func TestStridedUsesStride(t *testing.T) {
	p := Pattern{Kind: Strided, StrideLines: 4}
	rng := rand.New(rand.NewSource(1))
	g := newGen(p, 1*mb, 0, 1)
	a := g.next(rng)
	b := g.next(rng)
	if b-a != 4*LineBytes {
		t.Fatalf("stride = %d bytes, want %d", b-a, 4*LineBytes)
	}
}

func TestUniformStaysInBounds(t *testing.T) {
	p := Pattern{Kind: Uniform}
	rng := rand.New(rand.NewSource(2))
	size := uint64(256 * 1024)
	g := newGen(p, size, 0, 1)
	for i := 0; i < 10000; i++ {
		off := g.next(rng)
		if off >= size {
			t.Fatalf("offset %d out of bounds %d", off, size)
		}
		if off%LineBytes != 0 {
			t.Fatalf("offset %d not line aligned", off)
		}
	}
}

func TestZipfSkewsTowardHead(t *testing.T) {
	p := Pattern{Kind: Zipf, ZipfS: 1.4}
	rng := rand.New(rand.NewSource(3))
	size := uint64(4 * mb) // 1024 pages
	g := newGen(p, size, 0, 1)
	const n = 20000
	headPages := size / pageBytes / 10 // hottest 10% of address space
	head := 0
	for i := 0; i < n; i++ {
		off := g.next(rng)
		if off/pageBytes < headPages {
			head++
		}
	}
	frac := float64(head) / n
	if frac < 0.5 {
		t.Fatalf("zipf: first 10%% of pages got %.2f of accesses, want > 0.5", frac)
	}
}

func TestScatteredZipfDecorrelatesAddress(t *testing.T) {
	// Find the empirically hottest pages: under plain Zipf they are the
	// first pages of the structure; under ScatteredZipf they must be
	// spread across the address range.
	hottest := func(kind PatternKind) []uint64 {
		p := Pattern{Kind: kind, ZipfS: 1.4}
		rng := rand.New(rand.NewSource(3))
		size := uint64(4 * mb)
		g := newGen(p, size, 0, 1)
		counts := make(map[uint64]int)
		for i := 0; i < 20000; i++ {
			counts[g.next(rng)/pageBytes]++
		}
		var top []uint64
		for len(top) < 10 {
			best, bestC := uint64(0), -1
			for p, c := range counts {
				if c > bestC {
					best, bestC = p, c
				}
			}
			delete(counts, best)
			top = append(top, best)
		}
		return top
	}
	inHead := func(pages []uint64) int {
		n := 0
		for _, p := range pages {
			if p < 102 { // first 10% of 1024 pages
				n++
			}
		}
		return n
	}
	if got := inHead(hottest(Zipf)); got < 8 {
		t.Fatalf("plain zipf: only %d/10 hottest pages in address head, want >= 8", got)
	}
	if got := inHead(hottest(ScatteredZipf)); got > 4 {
		t.Fatalf("scattered zipf: %d/10 hottest pages in address head, want <= 4 (decorrelated)", got)
	}
}

func TestTouchFracLimitsRange(t *testing.T) {
	p := Pattern{Kind: Uniform, TouchFrac: 0.5}
	rng := rand.New(rand.NewSource(4))
	size := uint64(1 * mb)
	g := newGen(p, size, 0, 1)
	for i := 0; i < 5000; i++ {
		if off := g.next(rng); off >= size/2 {
			t.Fatalf("TouchFrac=0.5 produced offset %d beyond %d", off, size/2)
		}
	}
}

func TestTinyStructuresDoNotPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, kind := range []PatternKind{Sequential, Strided, Uniform, Zipf, ScatteredZipf} {
		p := Pattern{Kind: kind}
		g := newGen(p, 64, 0, 1) // smaller than one line
		for i := 0; i < 100; i++ {
			if off := g.next(rng); off != 0 {
				t.Fatalf("kind %v: tiny structure offset %d, want 0", kind, off)
			}
		}
	}
}

func TestSinglePageZipfDegradesToUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := Pattern{Kind: Zipf}
	g := newGen(p, pageBytes, 0, 1) // exactly one page
	for i := 0; i < 1000; i++ {
		if off := g.next(rng); off >= pageBytes {
			t.Fatalf("offset %d beyond single page", off)
		}
	}
}

// Property: every generator, for any structure size and warp, yields
// line-aligned offsets strictly inside the touched range.
func TestPropertyGeneratorsInBounds(t *testing.T) {
	f := func(sizeRaw uint16, warpRaw uint8, kindRaw uint8) bool {
		size := (uint64(sizeRaw) + 1) * LineBytes
		warps := 8
		warp := int(warpRaw) % warps
		kind := PatternKind(kindRaw % 6)
		rng := rand.New(rand.NewSource(int64(sizeRaw)))
		g := newGen(Pattern{Kind: kind}, size, warp, warps)
		for i := 0; i < 200; i++ {
			off := g.next(rng)
			if off >= size || off%LineBytes != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestZipfMatchesMathRand pins zipfDist to math/rand's Zipf: over the same
// source, every draw is equal, for the skews the workloads use and the
// page counts of one page up to a large structure.
func TestZipfMatchesMathRand(t *testing.T) {
	for _, s := range []float64{1.0001, 1.15, 1.2, 1.3, 1.4, 1.5, 2.5} {
		for _, imax := range []uint64{0, 1, 2, 31, 1023, 3071, 1 << 20} {
			z := newZipfDist(s, 1, imax)
			gr, wr := rand.New(rand.NewSource(int64(imax)+7)), rand.New(rand.NewSource(int64(imax)+7))
			want := rand.NewZipf(wr, s, 1, imax)
			for i := 0; i < 2000; i++ {
				if g, w := z.draw(gr), want.Uint64(); g != w {
					t.Fatalf("s=%v imax=%d: draw %d = %d, math/rand gives %d", s, imax, i, g, w)
				}
			}
		}
	}
}

func TestMixIsPermutationLike(t *testing.T) {
	// mix must be deterministic and spread small inputs widely.
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		v := mix(i)
		if mix(i) != v {
			t.Fatal("mix not deterministic")
		}
		seen[v] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("mix collided: %d distinct outputs of 1000", len(seen))
	}
}

func TestGatherScatterTransactions(t *testing.T) {
	p := Pattern{Kind: GatherScatter, Lanes: 32}
	rng := rand.New(rand.NewSource(9))
	size := uint64(8 * mb)
	g := newGen(p, size, 0, 1)
	// Drain several warp instructions; offsets must be line aligned and in
	// bounds, and distinct within one instruction's burst.
	for instr := 0; instr < 50; instr++ {
		seen := map[uint64]bool{}
		first := g.next(rng)
		seen[first] = true
		burst := len(g.pending) + 1
		if burst < 2 || burst > 32 {
			t.Fatalf("gather burst = %d transactions, want 2..32", burst)
		}
		for i := 1; i < burst; i++ {
			off := g.next(rng)
			if off >= size || off%LineBytes != 0 {
				t.Fatalf("offset %d invalid", off)
			}
			if seen[off] {
				t.Fatal("duplicate transaction within one instruction")
			}
			seen[off] = true
		}
	}
}

func TestGatherString(t *testing.T) {
	if got := (Pattern{Kind: GatherScatter, Lanes: 16}).String(); got != "gather(16)" {
		t.Fatalf("String = %q", got)
	}
	if got := (Pattern{Kind: GatherScatter}).String(); got != "gather(32)" {
		t.Fatalf("default String = %q", got)
	}
}
