package workloads

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the seeds the warp-source tests compare against
// math/rand: the normalization edge cases of rand's Seed (0 and multiples
// of 2³¹−1 map to its fixed replacement seed, negatives wrap), extremes,
// and the per-warp seeds Programs derives from every registered spec.
func sourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, lcgMod - 1, lcgMod, lcgMod + 1, -lcgMod, 2 * lcgMod, -7 * lcgMod,
		lcgZeroSeed, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		-1 << 40, -123456789012345, -(1<<62 + 12345),
	}
	for _, name := range AllNames() {
		for _, ds := range append(Variants(), Train()) {
			s := MustBuild(name, ds)
			for _, w := range []int{0, 1, s.Warps - 1} {
				seeds = append(seeds, s.Seed*1_000_003+int64(w))
			}
		}
	}
	return seeds
}

// checkSourceMatches compares a warpSource seeded with seed against
// rand.NewSource(seed) over 2×rngLen draws of each method (so the register
// wraps and words written by earlier draws are re-read), then over the
// rand.Rand methods the generators use. The Uint64 stream is compared from
// a fresh register and after reseeding a source n draws into another
// seed's stream, for n at each boundary of on-demand seeding: the tap
// reads seeded words up to draw rngTap and the feed up to draw
// rngLen−rngTap.
func checkSourceMatches(t *testing.T, seed int64) {
	t.Helper()
	var got warpSource
	want := rand.NewSource(seed).(rand.Source64)
	for _, n := range []int{0, 1, rngTap - 1, rngTap, rngTap + 1, rngLen - rngTap - 1, rngLen - rngTap, rngLen - rngTap + 1, 2 * rngLen} {
		got.Seed(^seed)
		for i := 0; i < n; i++ {
			got.Uint64()
		}
		got.Seed(seed) // reseeding a used source must reset it completely
		want.Seed(seed)
		for i := 0; i < 2*rngLen; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d reseeded after %d draws: Uint64 draw %d = %#x, math/rand gives %#x", seed, n, i, g, w)
			}
		}
	}
	got.Seed(seed)
	want.Seed(seed)
	for i := 0; i < 2*rngLen; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 draw %d = %#x, math/rand gives %#x", seed, i, g, w)
		}
	}

	var src warpSource
	src.Seed(seed)
	gr, wr := rand.New(&src), rand.New(rand.NewSource(seed))
	gz, wz := rand.NewZipf(gr, 1.2, 1, 1<<20), rand.NewZipf(wr, 1.2, 1, 1<<20)
	for i := 0; i < 500; i++ {
		if g, w := gr.Float64(), wr.Float64(); g != w {
			t.Fatalf("seed %d: Float64 draw %d = %v, math/rand gives %v", seed, i, g, w)
		}
		if g, w := gr.Intn(32), wr.Intn(32); g != w {
			t.Fatalf("seed %d: Intn draw %d = %d, math/rand gives %d", seed, i, g, w)
		}
		n := int64(1)<<40 + int64(i)*977
		if g, w := gr.Int63n(n), wr.Int63n(n); g != w {
			t.Fatalf("seed %d: Int63n draw %d = %d, math/rand gives %d", seed, i, g, w)
		}
		if g, w := gz.Uint64(), wz.Uint64(); g != w {
			t.Fatalf("seed %d: Zipf draw %d = %d, math/rand gives %d", seed, i, g, w)
		}
	}
}

// TestWarpSourceMatchesMathRand pins warpSource to math/rand's stream:
// every warp's access stream, and so every simulated number, depends on it.
func TestWarpSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds() {
		checkSourceMatches(t, seed)
	}
}

func FuzzSource(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, lcgMod, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(checkSourceMatches)
}
