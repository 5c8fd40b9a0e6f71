package obs

import (
	"strings"
	"sync"

	"hetsim/internal/gpu"
	"hetsim/internal/memsys"
	"hetsim/internal/migrate"
	"hetsim/internal/sim"
)

// Probe is one run's flight recorder. Create it with New, hand it to the
// run (experiments.RunConfig.WithProbe), and read the recorded series with
// Snapshot after — or SnapshotSince while — the run executes.
//
// Sampling happens inside a window hook, at every window edge. Each grid
// point k*Interval is recorded at the first edge whose frontier has passed
// it, stamped with the grid time; the run's end adds one final sample
// stamped with the end-of-run clock. All sampling state — the ring, the
// row scratch, the per-pool readings — is preallocated at Attach, so a
// sample performs no heap allocations.
//
// Snapshot methods are safe to call concurrently with the run (the
// /progress endpoint does); the mutex is taken only at window edges and
// snapshot reads, never on the event hot path.
type Probe struct {
	cfg Config
	// Label tags exports (file names, counter process names). Set before
	// the run; typically workload.policy.key[:8].
	Label string

	mu        sync.Mutex
	columns   []string
	buf       []float64 // ring storage, capn*ncols
	ncols     int
	capn      int
	count     uint64 // total samples ever recorded
	final     bool
	finalTime sim.Time

	// Hook-side state, touched only from the window hook.
	world    *sim.World
	mem      *memsys.System
	mig      *migrate.Engine
	g        *gpu.GPU
	next     sim.Time
	lastTime sim.Time
	pools    []memsys.PoolProbe
	prevBusy []sim.Time
	icPool   []bool // pools behind an interconnect hop (ExtraLatency > 0)
	hasIC    bool
	row      []float64
}

// New validates cfg and returns an unattached probe.
func New(cfg Config) (*Probe, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Probe{cfg: cfg}, nil
}

// Attach binds the probe to one run's components and registers its window
// hook; mig may be nil (no migration engine). Call during run assembly,
// after the memory system's own window hooks are registered, so samples
// observe flushed page-table state. A probe records one run: attaching
// twice panics.
func (p *Probe) Attach(world *sim.World, mem *memsys.System, mig *migrate.Engine, g *gpu.GPU) {
	if world == nil || mem == nil || g == nil {
		panic("obs: Attach needs a world, a memory system, and a GPU")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.world != nil {
		panic("obs: probe already attached")
	}
	p.world, p.mem, p.mig, p.g = world, mem, mig, g

	zones := mem.Config().Zones
	cols := []string{"time_cycles"}
	for _, zc := range zones {
		n := strings.ToLower(zc.Name)
		cols = append(cols, "util."+n, "pages."+n, "bytes."+n)
		behind := zc.ExtraLatency > 0
		p.icPool = append(p.icPool, behind)
		p.hasIC = p.hasIC || behind
	}
	if p.hasIC {
		cols = append(cols, "ic.bytes")
	}
	cols = append(cols, "mshr.used", "mshr.stalled", "mshr.full_stalls")
	cols = append(cols, "wb.depth", "wb.queued", "wb.drained")
	if mig != nil {
		cols = append(cols, "mig.epochs", "mig.promotions", "mig.demotions", "mig.wb_stalls")
	}
	cols = append(cols, "warps_done", "warps_live", "events")

	p.columns = cols
	p.ncols = len(cols)
	p.capn = p.cfg.MaxSamples
	p.buf = make([]float64, p.capn*p.ncols)
	p.row = make([]float64, p.ncols)
	p.pools = make([]memsys.PoolProbe, len(zones))
	p.prevBusy = make([]sim.Time, len(zones))

	world.OnWindow(p.onWindow)
}

// onWindow runs at every window edge. The frontier (the earliest pending
// time) bounds what has fired: every grid point at or before it is due,
// and when it reaches Forever the run has drained and the final sample
// closes the series.
func (p *Probe) onWindow() {
	if p.final {
		return
	}
	front := p.world.Front()
	if front == sim.Forever {
		end := p.world.Now()
		p.record(end)
		p.mu.Lock()
		p.final = true
		p.finalTime = end
		p.mu.Unlock()
		return
	}
	for p.next <= front {
		p.record(p.next)
		p.next += p.cfg.Interval
	}
}

// record takes one sample stamped t. Hook-side only.
func (p *Probe) record(t sim.Time) {
	row := p.row
	row[0] = float64(t)
	i := 1

	p.mem.FillPoolProbes(p.pools)
	dt := t - p.lastTime
	var icBytes float64
	for z := range p.pools {
		pp := &p.pools[z]
		util := 0.0
		if dt > 0 && pp.Channels > 0 {
			util = float64(pp.BusyCycles-p.prevBusy[z]) / (float64(pp.Channels) * float64(dt))
		}
		p.prevBusy[z] = pp.BusyCycles
		row[i] = util
		row[i+1] = float64(p.mem.Space().ZoneUsed(pp.Zone))
		row[i+2] = float64(pp.BytesMoved)
		if p.icPool[z] {
			icBytes += float64(pp.BytesMoved)
		}
		i += 3
	}
	p.lastTime = t
	if p.hasIC {
		row[i] = icBytes
		i++
	}

	var used, stalled int
	var fullStalls uint64
	for z := range p.pools {
		used += p.pools[z].MSHRUsed
		stalled += p.pools[z].MSHRStalled
		fullStalls += p.pools[z].FullStalls
	}
	row[i] = float64(used)
	row[i+1] = float64(stalled)
	row[i+2] = float64(fullStalls)
	i += 3

	pc := p.mem.ProbeCounters()
	row[i] = float64(pc.WriteBackDepth)
	row[i+1] = float64(pc.WriteBacksQueued)
	row[i+2] = float64(pc.WriteBacksDrained)
	i += 3

	if p.mig != nil {
		ms := p.mig.Stats()
		row[i] = float64(ms.Epochs)
		row[i+1] = float64(ms.Promotions)
		row[i+2] = float64(ms.Demotions)
		row[i+3] = float64(ms.WriteBackStalls)
		i += 4
	}

	row[i] = float64(p.g.Stats().WarpsCompleted)
	row[i+1] = float64(p.g.Outstanding())
	row[i+2] = float64(p.world.Fired())

	p.mu.Lock()
	slot := int(p.count % uint64(p.capn))
	copy(p.buf[slot*p.ncols:(slot+1)*p.ncols], row)
	p.count++
	p.mu.Unlock()
}

// Snapshot copies the full retained series.
func (p *Probe) Snapshot() Snapshot { return p.SnapshotSince(0) }

// SnapshotSince copies the samples recorded at or after cursor seq (pass a
// previous snapshot's Seq to stream increments). Samples the ring has
// already overwritten count as Dropped. Safe to call concurrently with
// the run.
func (p *Probe) SnapshotSince(seq uint64) Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Snapshot{
		IntervalCycles: p.cfg.Interval,
		Seq:            p.count,
		Final:          p.final,
		FinalTime:      p.finalTime,
	}
	if p.ncols == 0 { // not attached yet
		return s
	}
	s.Columns = append([]string(nil), p.columns...)
	retained := uint64(p.capn)
	if p.count < retained {
		retained = p.count
	}
	oldest := p.count - retained
	from := seq
	if from < oldest {
		from = oldest
	}
	s.Dropped = from - seq
	if from > p.count {
		from = p.count
	}
	flat := make([]float64, int(p.count-from)*p.ncols)
	s.Rows = make([][]float64, 0, p.count-from)
	for q := from; q < p.count; q++ {
		slot := int(q % uint64(p.capn))
		row := flat[:p.ncols:p.ncols]
		flat = flat[p.ncols:]
		copy(row, p.buf[slot*p.ncols:(slot+1)*p.ncols])
		s.Rows = append(s.Rows, row)
	}
	return s
}
