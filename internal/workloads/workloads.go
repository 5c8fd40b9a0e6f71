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
// When the process has recorded s's stream, the programs replay it (see
// streams.go); otherwise they generate it, and record it for
// ReleasePrograms to publish when it fits a packed word and the store.
// The programs live in one slab, taken from the slabs ReleasePrograms
// returned when one is large enough, and a reused program keeps the
// random-source register an earlier run's draws allocated. A released slab
// too small for the spec is replaced, and the new slab's first programs
// take its programs' registers.
func (s *Spec) Programs(allocs []gpurt.Allocation) []gpu.WarpProgram {
	return programs(s, allocs, streams)
}

// programs is Programs over store.
func programs(s *Spec, allocs []gpurt.Allocation, store *streamStore) []gpu.WarpProgram {
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
	return slab.fill(s, allocs, store)
}

func newProgramSlab(warps int) *programSlab {
	return &programSlab{warps: make([]warpProgram, warps), progs: make([]gpu.WarpProgram, warps)}
}

// fill builds s's programs in the slab, which holds at least s.Warps: in
// replay mode when store holds s's stream, else in record mode when store
// could hold it, else in generate mode. Only generating programs need
// weights, Zipf distributions and offset generators.
func (slab *programSlab) fill(s *Spec, allocs []gpurt.Allocation, store *streamStore) []gpu.WarpProgram {
	slab.key = s.appendKey(slab.key[:0])
	slab.store, slab.record, slab.done, slab.inUse = store, nil, 0, true
	replay := store.lookup(slab.key)
	var cum []float64
	switch {
	case replay != nil:
		slab.mode = replaying
	case s.packable() && store.fits(slab.key, s.TotalAccesses()):
		slab.mode = recording
	default:
		slab.mode = generating
	}
	if slab.mode != replaying {
		cum = cumulativeWeights(s.Structures)
		slab.zipfs = resized(slab.zipfs, len(s.Structures))
		for i, st := range s.Structures {
			slab.zipfs[i] = st.Pattern.zipf(st.Size)
		}
		slab.gens = resized(slab.gens, s.Warps*len(s.Structures))
	}
	slab.addrs = resized(slab.addrs, s.Warps*s.AccessesPerPhase)
	progs := slab.progs[:s.Warps]
	for w := range progs {
		slab.warps[w].init(s, allocs, cum, slab, w, replay)
		progs[w] = &slab.warps[w]
	}
	return progs
}

// ReleasePrograms hands the slab behind progs, a result of Programs, to
// the next Programs call, and publishes the stream progs recorded if every
// program produced its last phase. No program may run after it. Programs
// that no slab holds, such as trace replays, are left alone.
func ReleasePrograms(progs []gpu.WarpProgram) {
	if len(progs) == 0 {
		return
	}
	p, ok := progs[0].(*warpProgram)
	if !ok || !p.slab.inUse {
		return // a second release finds nothing to return
	}
	slab := p.slab
	if slab.mode == recording && slab.done == p.spec.Warps {
		slab.store.publish(slab.key, slab.record)
	}
	slab.record, slab.inUse = nil, false
	slabs.Put(slab)
}

// streamMode is how a slab's programs come by their accesses.
type streamMode uint8

const (
	// generating programs draw every access and record none.
	generating streamMode = iota
	// recording programs draw every access and pack it into their window
	// of the slab's record.
	recording
	// replaying programs expand their window of a published stream and
	// draw nothing.
	replaying
)

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
	// The stream: key is the spec's, store the one fill looked it up in.
	// A recording slab's first NextPhase allocates record, one window per
	// program, and done counts the programs that produced their last
	// phase; ReleasePrograms publishes the record and the slab forgets it.
	key    []byte
	store  *streamStore
	mode   streamMode
	record []uint32
	done   int
	// inUse is set from fill to ReleasePrograms.
	inUse bool
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
	slab     *programSlab
	id       int // the warp's index in the spec
	// words is the program's window of the stream it replays or records,
	// one word per access of every phase; a recording program takes it at
	// its first phase.
	words []uint32
}

// init sets every field for warp warpID of s, in slab, which fill has
// sized for s; replay is the stream a replaying slab expands. The program
// may be one a released slab held for another spec, so nothing may depend
// on a zero value: the drift buffers keep their capacity and are resized.
func (w *warpProgram) init(s *Spec, allocs []gpurt.Allocation, cum []float64, slab *programSlab, warpID int, replay []uint32) {
	w.spec, w.allocs, w.cum, w.slab, w.id = s, allocs, cum, slab, warpID
	n, m := len(s.Structures), s.AccessesPerPhase
	w.addrs = slab.addrs[warpID*m : (warpID+1)*m : (warpID+1)*m]
	w.phase = 0
	w.words = nil
	if replay != nil {
		per := s.PhasesPerWarp * m
		w.words = replay[warpID*per : (warpID+1)*per : (warpID+1)*per]
		return
	}
	if s.WeightDrift > 0 {
		w.weights = resized(w.weights, n)
		w.cumDrift = resized(w.cumDrift, n)
	}
	w.src.Seed(s.Seed*1_000_003 + int64(warpID))
	w.rng = *rand.New(&w.src)
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
	if w.slab.mode == replaying {
		w.replayPhase()
	} else {
		w.generatePhase()
	}
	return gpu.Phase{
		ComputeCycles: w.spec.ComputeCycles,
		Addrs:         w.addrs,
		MLP:           w.spec.MLP,
		Overlap:       w.spec.Overlap,
	}, true
}

// replayPhase expands the phase's words against the run's allocations.
func (w *warpProgram) replayPhase() {
	m := len(w.addrs)
	words := w.words[(w.phase-1)*m : w.phase*m]
	addrs := w.addrs[:len(words)]
	for i, x := range words {
		line, si, write := unpack(x)
		addrs[i] = gpu.Access{VA: w.allocs[si].Base + line*LineBytes, Write: write}
	}
}

// generatePhase draws the phase's accesses and, when recording, packs each
// into the program's window of the slab's record.
func (w *warpProgram) generatePhase() {
	if w.spec.WeightDrift > 0 {
		w.updateDriftedWeights()
	}
	addrs := w.addrs
	var rec []uint32
	if w.slab.mode == recording {
		if w.words == nil {
			w.words = w.slab.window(w.id)
		}
		rec = w.words[(w.phase-1)*len(addrs) : w.phase*len(addrs)]
		if w.phase == w.spec.PhasesPerWarp {
			w.slab.done++
		}
	}
	for i := range addrs {
		si := w.pickStructure()
		st := &w.spec.Structures[si]
		off := w.gens[si].next(&w.rng)
		write := st.WriteFrac > 0 && w.rng.Float64() < st.WriteFrac
		addrs[i] = gpu.Access{VA: w.allocs[si].Base + off, Write: write}
		if rec != nil {
			rec[i] = pack(off, si, write)
		}
	}
}

// window returns warp warpID's window of the slab's record, which the
// first call allocates.
func (slab *programSlab) window(warpID int) []uint32 {
	s := slab.warps[0].spec
	per := s.PhasesPerWarp * s.AccessesPerPhase
	if slab.record == nil {
		slab.record = make([]uint32, s.Warps*per)
	}
	return slab.record[warpID*per : (warpID+1)*per : (warpID+1)*per]
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
