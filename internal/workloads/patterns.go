package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"hetsim/internal/gpu"
)

// LineBytes is the coalesced access granularity: one access touches one
// 128-byte cache line, matching the memory system's line size.
const LineBytes = 128

// PatternKind selects how offsets within a structure are generated.
type PatternKind int

// Pattern kinds.
const (
	// Sequential streams through the structure line by line; each warp
	// starts at its own partition, modelling coalesced streaming kernels.
	Sequential PatternKind = iota
	// Strided walks the structure with a fixed stride (column-major or
	// blocked kernels).
	Strided
	// Uniform picks lines uniformly at random over the touched range.
	Uniform
	// Zipf picks pages with a Zipf distribution (hot head), then a random
	// line within the page. Hot pages cluster at the structure's start,
	// producing the address-correlated hotness of Figure 7 (bfs).
	Zipf
	// ScatteredZipf is Zipf with the page order bit-mixed, so hot pages
	// are spread across the structure's address range — hotness NOT
	// correlated with address, as the paper observes for mummergpu.
	ScatteredZipf
	// GatherScatter models warp-divergent access: each instruction's 32
	// lanes gather from random addresses and the coalescing unit merges
	// them into however many line transactions they span (usually ~32 for
	// random gathers, fewer when lanes collide).
	GatherScatter
)

// Pattern parameterizes offset generation within one structure.
type Pattern struct {
	Kind PatternKind
	// StrideLines is the stride for Strided, in lines (default 8).
	StrideLines int
	// ZipfS is the Zipf skew parameter (>1); larger is more skewed.
	// Default 1.2.
	ZipfS float64
	// TouchFrac restricts accesses to the first fraction of the structure
	// (Figure 7 shows mummergpu ranges that are allocated but never
	// accessed). Default 1.0.
	TouchFrac float64
	// Lanes is the warp width for GatherScatter (default 32).
	Lanes int
}

func (p Pattern) String() string {
	switch p.Kind {
	case Sequential:
		return "sequential"
	case Strided:
		return fmt.Sprintf("strided(%d)", p.strideLines())
	case Uniform:
		return "uniform"
	case Zipf:
		return fmt.Sprintf("zipf(%.2f)", p.zipfS())
	case ScatteredZipf:
		return fmt.Sprintf("scattered-zipf(%.2f)", p.zipfS())
	case GatherScatter:
		return fmt.Sprintf("gather(%d)", p.lanes())
	default:
		return fmt.Sprintf("Pattern(%d)", int(p.Kind))
	}
}

func (p Pattern) strideLines() int {
	if p.StrideLines <= 0 {
		return 8
	}
	return p.StrideLines
}

func (p Pattern) zipfS() float64 {
	if p.ZipfS <= 1 {
		return 1.2
	}
	return p.ZipfS
}

func (p Pattern) lanes() int {
	if p.Lanes <= 0 {
		return 32
	}
	return p.Lanes
}

func (p Pattern) touchFrac() float64 {
	if p.TouchFrac <= 0 || p.TouchFrac > 1 {
		return 1
	}
	return p.TouchFrac
}

// offsetGen produces successive byte offsets within one structure for one
// warp, deterministically given the warp's seeded rng. It is one value for
// every pattern kind, so a program holds its generators inline and a
// reused program sets them up without allocating.
type offsetGen struct {
	kind  PatternKind
	lines uint64 // lines the pattern touches
	// Sequential and Strided walk from cursor, stride lines a step.
	cursor, stride uint64
	// Zipf and ScatteredZipf draw one of pages pages from zipf, the
	// structure's distribution, which all its warps share.
	zipf  *zipfDist
	pages uint64
	// GatherScatter deals out pending, the coalesced transactions of one
	// lanes-wide instruction, before it draws the next.
	lanes   int
	pending []uint64
}

const pageBytes = 4096

// touchedLines is how many lines of a structure of size bytes the pattern
// touches.
func (p Pattern) touchedLines(size uint64) uint64 {
	lines := size / LineBytes
	if lines == 0 {
		lines = 1
	}
	touched := uint64(float64(lines) * p.touchFrac())
	if touched == 0 {
		touched = 1
	}
	return touched
}

// zipfPages is how many pages the Zipf kinds draw from in a structure of
// size bytes.
func (p Pattern) zipfPages(size uint64) uint64 {
	return max(p.touchedLines(size)*LineBytes/pageBytes, 1)
}

// zipf returns the page distribution of the Zipf kinds over a structure of
// size bytes.
func (p Pattern) zipf(size uint64) zipfDist {
	return newZipfDist(p.zipfS(), 1, p.zipfPages(size)-1)
}

// generator sets g to warp warpID's offset generator over a structure of
// size bytes, one of warps warps. z is the structure's p.zipf(size); only
// the Zipf kinds read it.
func (p Pattern) generator(g *offsetGen, size uint64, warpID, warps int, z *zipfDist) {
	touched := p.touchedLines(size)
	*g = offsetGen{kind: p.Kind, lines: touched}
	switch p.Kind {
	case Sequential, Strided:
		g.cursor = uint64(warpID) * touched / uint64(maxInt(warps, 1))
		g.stride = 1
		if p.Kind == Strided {
			g.stride = uint64(p.strideLines())
		}
	case GatherScatter:
		g.lanes = p.lanes()
	case Zipf, ScatteredZipf:
		g.zipf, g.pages = z, p.zipfPages(size)
	default:
		g.kind = Uniform
	}
}

const linesPerPage = pageBytes / LineBytes

func (g *offsetGen) next(rng *rand.Rand) uint64 {
	switch g.kind {
	case Sequential, Strided:
		off := (g.cursor % g.lines) * LineBytes
		g.cursor += g.stride
		return off
	case Zipf, ScatteredZipf:
		page := g.zipf.draw(rng)
		if g.kind == ScatteredZipf {
			page = mix(page) % g.pages
		}
		line := page*linesPerPage + uint64(rng.Intn(linesPerPage))
		if line >= g.lines {
			line = g.lines - 1
		}
		return line * LineBytes
	case GatherScatter:
		// One warp instruction per lane group: draw the lane addresses,
		// coalesce them with the GPU's coalescing rule, and deal the
		// transactions out one next() at a time.
		if len(g.pending) == 0 {
			laneAddrs := make([]uint64, g.lanes)
			span := int64(g.lines * LineBytes)
			for i := range laneAddrs {
				laneAddrs[i] = uint64(rng.Int63n(span))
			}
			g.pending = gpu.Coalesce(laneAddrs, LineBytes)
		}
		off := g.pending[0]
		g.pending = g.pending[1:]
		return off
	default: // Uniform
		return uint64(rng.Int63n(int64(g.lines))) * LineBytes
	}
}

// zipfDist is math/rand's Zipf distribution less its generator: draw takes
// the warp's rng, so a generator holds the distribution inline rather than
// allocating a rand.Zipf. Its arithmetic is rand.Zipf's (rejection-
// inversion sampling, Hörmann and Derflinger 1996) operation for
// operation, so the draws are bit-identical (TestZipfMatchesMathRand).
type zipfDist struct {
	imax, v, q, s, oneminusQ, oneminusQinv, hxm, hx0minusHxm float64
}

// newZipfDist is rand.NewZipf(r, s, v, imax) for s > 1 and v >= 1.
func newZipfDist(s, v float64, imax uint64) zipfDist {
	z := zipfDist{imax: float64(imax), v: v, q: s}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	return z
}

func (z *zipfDist) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipfDist) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// draw is rand.Zipf.Uint64 over r.
func (z *zipfDist) draw(r *rand.Rand) uint64 {
	k := 0.0
	for {
		u := r.Float64()
		ur := z.hxm + u*z.hx0minusHxm
		x := z.hinv(ur)
		k = math.Floor(x + 0.5)
		if k-x <= z.s {
			break
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			break
		}
	}
	return uint64(k)
}

// mix is a fixed 64-bit permutation (splitmix64 finalizer) that decorrelates
// Zipf rank from address while remaining deterministic.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
