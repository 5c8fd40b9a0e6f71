// Package workloads provides synthetic reconstructions of the 19 GPU
// benchmarks the paper evaluates (Rodinia, Parboil, and HPC proxy apps),
// plus one extended workload. Each workload is a Spec: a set of named data
// structures (the cudaMalloc'd arrays of the original program) and an
// execution shape (warp count, phases, compute intensity, memory-level
// parallelism) whose generated access streams reproduce the properties the
// paper reports for that benchmark:
//
//   - bandwidth- vs latency- vs compute-sensitivity (Figure 2),
//   - the page-access CDF shape (Figure 6), and
//   - whether hotness correlates with data structures (Figure 7).
//
// The original CUDA sources and inputs are not reproducible here (no GPU,
// no CUDA), so the generators are parameterized from the paper's published
// measurements; DESIGN.md documents this substitution.
package workloads

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"hetsim/internal/core"
	"hetsim/internal/gpu"
	"hetsim/internal/gpurt"
	"hetsim/internal/sim"
)

// Hint re-exports the placement hint type so workload code reads naturally.
type Hint = core.Hint

// HintNone is the absence of an annotation.
const HintNone = core.HintNone

// Class is a workload's dominant memory-system sensitivity, used by tests
// and by the Figure 2 reproduction to check each workload lands in the
// regime the paper reports.
type Class int

// Sensitivity classes.
const (
	BandwidthBound Class = iota
	LatencyBound
	ComputeBound
	Mixed
)

func (c Class) String() string {
	switch c {
	case BandwidthBound:
		return "bandwidth"
	case LatencyBound:
		return "latency"
	case ComputeBound:
		return "compute"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Structure is one program data structure (one cudaMalloc).
type Structure struct {
	Label string
	Size  uint64
	// Weight is the fraction of the workload's accesses that target this
	// structure.
	Weight float64
	// WriteFrac is the probability an access to this structure is a store.
	WriteFrac float64
	Pattern   Pattern
}

// Spec is a complete synthetic workload.
type Spec struct {
	Name       string
	Suite      string // "rodinia", "parboil", or "hpc"
	Class      Class
	Structures []Structure

	Warps            int      // total warps launched
	PhasesPerWarp    int      // compute+memory iterations per warp
	AccessesPerPhase int      // coalesced accesses per memory phase
	ComputeCycles    sim.Time // compute work per phase
	MLP              int      // outstanding accesses per warp
	// Overlap marks software-pipelined kernels whose compute and memory
	// proceed concurrently (phase time = max, not sum) — the mechanism
	// behind memory-insensitive workloads like comd.
	Overlap bool
	// WeightDrift models temporal phasing (§5.5): when > 0, each
	// structure's access weight drifts linearly over the run toward the
	// next structure's initial weight. At 1.0 the weight vector has fully
	// rotated by the final phase, so the hot data structure changes
	// mid-run — the case where initial placement cannot be right for the
	// whole execution and online migration can pay off.
	WeightDrift float64
	Seed        int64
}

// Validate reports specification errors.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workloads: unnamed spec")
	}
	if len(s.Structures) == 0 {
		return fmt.Errorf("workloads: %s: no structures", s.Name)
	}
	var w float64
	for _, st := range s.Structures {
		if st.Size == 0 {
			return fmt.Errorf("workloads: %s: structure %q has zero size", s.Name, st.Label)
		}
		if st.Weight < 0 {
			return fmt.Errorf("workloads: %s: structure %q has negative weight", s.Name, st.Label)
		}
		w += st.Weight
	}
	if w <= 0 {
		return fmt.Errorf("workloads: %s: zero total weight", s.Name)
	}
	if s.Warps <= 0 || s.PhasesPerWarp <= 0 || s.AccessesPerPhase < 0 {
		return fmt.Errorf("workloads: %s: bad execution shape (%d warps, %d phases, %d accesses)",
			s.Name, s.Warps, s.PhasesPerWarp, s.AccessesPerPhase)
	}
	return nil
}

// Footprint is the total bytes across structures.
func (s *Spec) Footprint() uint64 {
	var f uint64
	for _, st := range s.Structures {
		f += st.Size
	}
	return f
}

// TotalAccesses is the number of coalesced accesses the workload issues.
func (s *Spec) TotalAccesses() uint64 {
	return uint64(s.Warps) * uint64(s.PhasesPerWarp) * uint64(s.AccessesPerPhase)
}

// Shrink scales the workload's execution length (not its footprint) by
// 1/factor, for fast unit tests and smoke runs. Footprint is preserved so
// placement behaviour is unchanged; only statistical confidence shrinks.
func (s *Spec) Shrink(factor int) {
	if factor <= 1 {
		return
	}
	s.PhasesPerWarp = maxInt(1, s.PhasesPerWarp/factor)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Allocate performs the workload's Mallocs in program order through rt.
// hints, when non-nil, must have one entry per structure (the annotation
// path of §5.3); nil means no annotations.
func (s *Spec) Allocate(rt *gpurt.Runtime, hints []Hint) ([]gpurt.Allocation, error) {
	if hints != nil && len(hints) != len(s.Structures) {
		return nil, fmt.Errorf("workloads: %s: %d hints for %d structures", s.Name, len(hints), len(s.Structures))
	}
	allocs := make([]gpurt.Allocation, len(s.Structures))
	for i, st := range s.Structures {
		h := HintNone
		if hints != nil {
			h = hints[i]
		}
		a, err := rt.Malloc(st.Label, st.Size, h)
		if err != nil {
			return nil, err
		}
		allocs[i] = a
	}
	return allocs, nil
}

// Programs builds one WarpProgram per warp, deterministically derived from
// the spec seed. allocs must be the result of Allocate on the same spec.
// The programs live in one slab, taken from the slabs ReleasePrograms
// returned when one is large enough, and a reused program keeps the
// random-source register an earlier run's draws allocated. A released slab
// too small for the spec is replaced, and the new slab's first programs
// take its programs' registers.
func (s *Spec) Programs(allocs []gpurt.Allocation) []gpu.WarpProgram {
	slab, _ := slabs.Get().(*programSlab)
	if slab == nil || len(slab.warps) < s.Warps {
		small := slab
		slab = newProgramSlab(s.Warps)
		if small != nil {
			for i := range small.warps {
				slab.warps[i].src.vec = small.warps[i].src.vec
			}
		}
	}
	return slab.fill(s, allocs)
}

func newProgramSlab(warps int) *programSlab {
	return &programSlab{warps: make([]warpProgram, warps), progs: make([]gpu.WarpProgram, warps)}
}

// fill builds s's programs in the slab, which holds at least s.Warps.
func (slab *programSlab) fill(s *Spec, allocs []gpurt.Allocation) []gpu.WarpProgram {
	cum := cumulativeWeights(s.Structures)
	slab.zipfs = resized(slab.zipfs, len(s.Structures))
	for i, st := range s.Structures {
		slab.zipfs[i] = st.Pattern.zipf(st.Size)
	}
	slab.gens = resized(slab.gens, s.Warps*len(s.Structures))
	slab.addrs = resized(slab.addrs, s.Warps*s.AccessesPerPhase)
	progs := slab.progs[:s.Warps]
	for w := range progs {
		slab.warps[w].init(s, allocs, cum, slab, w)
		progs[w] = &slab.warps[w]
	}
	if len(progs) > 0 {
		slab.warps[0].slab = slab
	}
	return progs
}

// ReleasePrograms hands the slab behind progs, a result of Programs, to
// the next Programs call. No program may run after it. Programs that no
// slab holds, such as trace replays, are left alone.
func ReleasePrograms(progs []gpu.WarpProgram) {
	if len(progs) == 0 {
		return
	}
	if p, ok := progs[0].(*warpProgram); ok && p.slab != nil {
		slab := p.slab
		p.slab = nil // a second release finds nothing to return
		slabs.Put(slab)
	}
}

// programSlab is the storage of one Programs result: the programs and the
// interface list over them; each structure's Zipf page distribution,
// which the structure's generators share; and every program's generators
// and phase buffer, one window of gens and addrs per program. slabs holds
// released ones; the program slices keep their length, and Programs
// reslices them to its spec's warp count.
type programSlab struct {
	warps []warpProgram
	progs []gpu.WarpProgram
	zipfs []zipfDist
	gens  []offsetGen
	addrs []gpu.Access
}

var slabs sync.Pool // of *programSlab

func cumulativeWeights(sts []Structure) []float64 {
	cum := make([]float64, len(sts))
	total := 0.0
	for _, st := range sts {
		total += st.Weight
	}
	c := 0.0
	for i, st := range sts {
		c += st.Weight / total
		cum[i] = c
	}
	cum[len(cum)-1] = 1.0
	return cum
}

type warpProgram struct {
	spec   *Spec
	allocs []gpurt.Allocation
	cum    []float64
	// Buffers refilled every phase: addrs backs every Phase.Addrs the
	// program returns; weights and cumDrift are WeightDrift scratch.
	addrs    []gpu.Access
	weights  []float64
	cumDrift []float64
	src      warpSource
	rng      rand.Rand // over src
	phase    int
	gens     []offsetGen // per structure
	// slab is set on a slab's first program until ReleasePrograms returns
	// the slab.
	slab *programSlab
}

// init sets every field for warp warpID of s, in slab, which Programs
// has sized for s. The program may be one a released slab held for
// another spec, so nothing may depend on a zero value: the drift buffers
// keep their capacity and are resized.
func (w *warpProgram) init(s *Spec, allocs []gpurt.Allocation, cum []float64, slab *programSlab, warpID int) {
	w.spec, w.allocs, w.cum = s, allocs, cum
	n, m := len(s.Structures), s.AccessesPerPhase
	w.addrs = slab.addrs[warpID*m : (warpID+1)*m : (warpID+1)*m]
	if s.WeightDrift > 0 {
		w.weights = resized(w.weights, n)
		w.cumDrift = resized(w.cumDrift, n)
	}
	w.src.Seed(s.Seed*1_000_003 + int64(warpID))
	w.rng = *rand.New(&w.src)
	w.phase = 0
	w.gens = slab.gens[warpID*n : (warpID+1)*n : (warpID+1)*n]
	for i, st := range s.Structures {
		st.Pattern.generator(&w.gens[i], st.Size, warpID, s.Warps, &slab.zipfs[i])
	}
}

// resized returns b with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resized[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// NextPhase implements gpu.WarpProgram. The returned Addrs alias the
// program's phase buffer, which the next call overwrites.
func (w *warpProgram) NextPhase() (gpu.Phase, bool) {
	if w.phase >= w.spec.PhasesPerWarp {
		return gpu.Phase{}, false
	}
	w.phase++
	if w.spec.WeightDrift > 0 {
		w.updateDriftedWeights()
	}
	addrs := w.addrs
	for i := range addrs {
		si := w.pickStructure()
		st := &w.spec.Structures[si]
		off := w.gens[si].next(&w.rng)
		addrs[i] = gpu.Access{
			VA:    w.allocs[si].Base + off,
			Write: st.WriteFrac > 0 && w.rng.Float64() < st.WriteFrac,
		}
	}
	return gpu.Phase{
		ComputeCycles: w.spec.ComputeCycles,
		Addrs:         addrs,
		MLP:           w.spec.MLP,
		Overlap:       w.spec.Overlap,
	}, true
}

func (w *warpProgram) pickStructure() int {
	r := w.rng.Float64()
	for i, c := range w.cum {
		if r < c {
			return i
		}
	}
	return len(w.cum) - 1
}

// updateDriftedWeights recomputes the cumulative weight vector for the
// current phase under WeightDrift: w_i interpolates toward w_{i+1 mod n}
// as the run progresses.
func (w *warpProgram) updateDriftedWeights() {
	n := len(w.spec.Structures)
	progress := float64(w.phase-1) / float64(maxInt(w.spec.PhasesPerWarp-1, 1))
	d := w.spec.WeightDrift * progress
	weights := w.weights
	total := 0.0
	for i := range weights {
		cur := w.spec.Structures[i].Weight
		next := w.spec.Structures[(i+1)%n].Weight
		weights[i] = (1-d)*cur + d*next
		total += weights[i]
	}
	c := 0.0
	for i, wt := range weights {
		c += wt / total
		w.cumDrift[i] = c
	}
	w.cumDrift[n-1] = 1.0
	w.cum = w.cumDrift
}

// Describe returns a one-line human-readable summary of the workload:
// suite, class, footprint, execution shape, and its structures.
func (s *Spec) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %-9s %5.1f MB, %d structures, %d warps x %d phases x %d acc (compute %d, MLP %d",
		s.Name, s.Suite, s.Class, float64(s.Footprint())/(1<<20), len(s.Structures),
		s.Warps, s.PhasesPerWarp, s.AccessesPerPhase, s.ComputeCycles, s.MLP)
	if s.Overlap {
		b.WriteString(", overlapped")
	}
	if s.WeightDrift > 0 {
		fmt.Fprintf(&b, ", drift %.1f", s.WeightDrift)
	}
	b.WriteString(")")
	return b.String()
}
