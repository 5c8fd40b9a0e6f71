package workloads

import "math/rand"

// warpSource is math/rand's default Source — the additive lagged-Fibonacci
// generator behind rand.NewSource — with a cheaper Seed. Every warp seeds
// its own generator, so a bandwidth-bound run seeds hundreds of them per
// simulation, and a short run's warp draws far fewer numbers than the
// 607-word register holds. rand's Seed walks the seeding LCG
// x' = 48271·x mod (2³¹−1) serially, 1841 steps per seed, and
// rand.NewSource allocates a fresh 4.9 kB register each time. Here Seed
// only normalizes the seed, and the first draw to read a register word
// computes it as 48271ⁿ·x₀ mod (2³¹−1) from a power table built once: a
// warp that draws k < 334 numbers computes about 2k words. The first draw
// allocates the register, so programs built but never run hold none, and
// a reseeded source keeps its register: since every word is computed
// before it is read, a reused register needs no reset. The streams are
// bit-identical to rand.NewSource's (TestWarpSourceMatchesMathRand pins
// them), so every rand.Rand method over it — Float64, Intn, Int63n,
// NewZipf — behaves exactly as it would over rand.NewSource.
type warpSource struct {
	tap, feed int
	// x is the normalized seed while draws still read words Seed did not
	// compute, and 0 once they are all computed.
	x   uint64
	vec *[rngLen]uint64 // nil until the first draw
}

const (
	rngLen  = 607 // register length (the generator's long lag)
	rngTap  = 273 // short lag
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
	lcgSkip = 20 // LCG steps rand's Seed discards before the first word
	// lcgZeroSeed replaces a seed ≡ 0 (mod 2³¹−1), a fixed point of the LCG.
	lcgZeroSeed = 89482311
)

var (
	// lcgPow[i][k] is 48271^(lcgSkip+1+3i+k) mod (2³¹−1): the multiplier
	// taking the normalized seed to the k-th of the three LCG words that
	// make up register word i.
	lcgPow [rngLen][3]uint64
	// rngCooked is math/rand's table of the same name, which Seed XORs
	// into the register. It is recovered at init from rand.NewSource(1)
	// rather than copied, so it cannot drift from the toolchain's.
	rngCooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for n := 1; n <= lcgSkip+3*rngLen; n++ {
		p = p * lcgMul % lcgMod
		if k := n - lcgSkip - 1; k >= 0 {
			lcgPow[k/3][k%3] = p
		}
	}
	rngCooked = recoverCooked(rand.NewSource(1).(rand.Source64))
}

// recoverCooked inverts rand's seeding for seed 1: it rebuilds the register
// ref held right after Seed(1) from its first rngLen outputs, then strips
// the seed-1 LCG words from it. ref must be freshly seeded with 1, and
// lcgPow must be built.
//
// Number the outputs s₁, s₂, … and the seeded register s₋₆₀₆ … s₀ in the
// order the feed index visits it. Each output is the sum of the word at the
// feed index, written rngLen draws earlier, and the word at the tap index,
// written rngTap draws earlier: s_k = s_{k−607} + s_{k−273}. So, walking k
// down from rngLen, s_{k−607} = s_k − s_{k−273}, where s_{k−273} is either
// an output or a register word already recovered.
func recoverCooked(ref rand.Source64) [rngLen]uint64 {
	var s [2 * rngLen]uint64 // s[j+rngLen-1] holds s_j, j in [-606, 607]
	for k := 1; k <= rngLen; k++ {
		s[k+rngLen-1] = ref.Uint64()
	}
	for k := rngLen; k >= 1; k-- {
		s[k-1] = s[k+rngLen-1] - s[k+rngLen-1-rngTap]
	}
	var cooked [rngLen]uint64
	for k := 1; k <= rngLen; k++ {
		// Draw k reads its feed word from index (rngLen-rngTap-k) mod rngLen.
		// From seed 1 the LCG words are the powers themselves; Seed packs
		// them as below before mixing in rngCooked.
		i := (2*rngLen - rngTap - k) % rngLen
		p := &lcgPow[i]
		cooked[i] = s[k-1] ^ (p[0]<<40 ^ p[1]<<20 ^ p[2])
	}
	return cooked
}

// mulMod returns a·x mod (2³¹−1) for a, x in [1, 2³¹−2]. It folds the
// 62-bit product twice (2³¹ ≡ 1), which lands in [0, 2³¹−1]; the product
// of two units is never ≡ 0, so the result is already fully reduced.
func mulMod(a, x uint64) uint64 {
	p := a * x
	p = p&lcgMod + p>>31
	return p&lcgMod + p>>31
}

// seededWord returns register word i as rand's Seed fills it for the
// normalized seed x.
func seededWord(i int, x uint64) uint64 {
	p := &lcgPow[i]
	return mulMod(p[0], x)<<40 ^ mulMod(p[1], x)<<20 ^ mulMod(p[2], x) ^ rngCooked[i]
}

// Seed implements rand.Source with rand.NewSource's seeding. It computes
// no register word; the first draws do (seedWords).
func (r *warpSource) Seed(seed int64) {
	r.tap, r.feed = 0, rngLen-rngTap
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = lcgZeroSeed
	}
	r.x = uint64(seed)
}

// Int63 implements rand.Source.
func (r *warpSource) Int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }

// Uint64 implements rand.Source64.
func (r *warpSource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	if r.x != 0 {
		r.seedWords()
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x
}

// seedWords computes the words draws 1 to rngLen−rngTap (334) read before
// anything wrote them. Draw k's feed index, rngLen−rngTap−k, is one no
// earlier draw has read. Its tap index, rngLen−k, is likewise unread for
// k ≤ rngTap; for later k it is the feed word draw k−rngTap computed and
// updated. Draw 334 reads feed index 0, after which every word exists.
func (r *warpSource) seedWords() {
	if r.vec == nil {
		r.vec = new([rngLen]uint64)
	}
	r.vec[r.feed] = seededWord(r.feed, r.x)
	if r.tap >= rngLen-rngTap {
		r.vec[r.tap] = seededWord(r.tap, r.x)
	}
	if r.feed == 0 {
		r.x = 0
	}
}
