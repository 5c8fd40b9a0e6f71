package trace

import (
	"fmt"

	"hetsim/internal/gpu"
	"hetsim/internal/sim"
	"hetsim/internal/vm"
)

// Recorder wraps a memory system, recording every access that passes
// through. It implements gpu.Memory by forwarding each call unchanged —
// same requester actor, translation cache and completion — so a recorded
// run schedules exactly the events of the unrecorded run and produces the
// same result.
type Recorder struct {
	Mem gpu.Memory
	W   *Writer
	// Err records the first write failure; recording degrades to
	// pass-through after an error rather than corrupting the simulation.
	Err error
}

// AccessH implements gpu.Memory.
func (r *Recorder) AccessH(src *sim.Actor, va uint64, write bool, tc *vm.TransCache, h sim.Handler, arg uint64) {
	if r.Err == nil {
		r.Err = r.W.Write(Event{VA: va, Write: write})
	}
	r.Mem.AccessH(src, va, write, tc, h, arg)
}

// ReplayConfig shapes how a flat trace is re-executed: events are dealt
// round-robin to Warps warps in groups of AccessesPerPhase, with the given
// compute gap and MLP per phase.
type ReplayConfig struct {
	Warps            int
	AccessesPerPhase int
	ComputeCycles    sim.Time
	MLP              int
}

// Validate reports configuration errors.
func (c ReplayConfig) Validate() error {
	if c.Warps <= 0 {
		return fmt.Errorf("trace: replay warps %d must be positive", c.Warps)
	}
	if c.AccessesPerPhase <= 0 {
		return fmt.Errorf("trace: replay accesses/phase %d must be positive", c.AccessesPerPhase)
	}
	return nil
}

// Programs deals the events across warps and returns one program per warp.
// The concatenation of all programs' accesses is a permutation of the
// trace; within a warp, trace order is preserved.
func Programs(events []Event, cfg ReplayConfig) ([]gpu.WarpProgram, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	perWarp := make([][]Event, cfg.Warps)
	chunk := cfg.AccessesPerPhase
	for i := 0; i < len(events); i += chunk {
		end := i + chunk
		if end > len(events) {
			end = len(events)
		}
		w := (i / chunk) % cfg.Warps
		perWarp[w] = append(perWarp[w], events[i:end]...)
	}
	progs := make([]gpu.WarpProgram, cfg.Warps)
	for w := range progs {
		progs[w] = &replayProgram{events: perWarp[w], cfg: cfg}
	}
	return progs, nil
}

type replayProgram struct {
	events []Event
	cfg    ReplayConfig
	pos    int
}

// NextPhase implements gpu.WarpProgram.
func (p *replayProgram) NextPhase() (gpu.Phase, bool) {
	if p.pos >= len(p.events) {
		return gpu.Phase{}, false
	}
	end := p.pos + p.cfg.AccessesPerPhase
	if end > len(p.events) {
		end = len(p.events)
	}
	addrs := make([]gpu.Access, 0, end-p.pos)
	for _, e := range p.events[p.pos:end] {
		addrs = append(addrs, gpu.Access{VA: e.VA, Write: e.Write})
	}
	p.pos = end
	return gpu.Phase{
		ComputeCycles: p.cfg.ComputeCycles,
		Addrs:         addrs,
		MLP:           p.cfg.MLP,
	}, true
}
