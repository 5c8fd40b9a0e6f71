// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock measured in GPU core cycles and fires
// scheduled events in canonical (time, source actor, per-source seq) order,
// so two runs with the same inputs produce identical schedules. All
// higher-level models in this repository (DRAM, caches, SMs) are driven by
// one Engine, drained window by window by its World (world.go), whose
// window hooks commit deferred page-table updates and sample probes.
//
// Every event is scheduled through an Actor (At/After/Send/SendAfter in
// world.go) as a long-lived Handler plus a uint64 argument. Scheduling never
// allocates: the (Handler, arg) record is stored inline in the engine's
// queue slab, so models that keep pooled per-request records (memsys) or
// per-actor state machines (gpu warps) can schedule millions of events with
// zero garbage. Code without an actor of its own — setup code, the
// migration epoch, CPU co-traffic — schedules through the World's root
// actor.
//
// The queue is a monotone calendar (queue.go): the clock never goes
// backwards — scheduling into the past panics — so events sit in per-cycle
// buckets over a 4096-cycle window, with a small binary heap for events
// beyond it.
package sim

import "math"

// Time is a point in simulated time, in GPU core cycles.
type Time int64

// Forever is a time later than any reachable simulation time. It is useful
// as an initial value for "earliest deadline" computations.
const Forever Time = 1<<62 - 1

// maxTime bounds drains that have no deadline.
const maxTime Time = math.MaxInt64

// Handler is the event callback: OnEvent receives the argument given at
// scheduling time. A single long-lived Handler typically multiplexes
// several event kinds by encoding a step code (and optional payload) into
// arg.
type Handler interface {
	OnEvent(arg uint64)
}

// scheduled is one queued event. Records live inline in the engine's queue
// slab — scheduling never boxes them into an interface{} and never
// heap-allocates per event.
type scheduled struct {
	at  Time
	src ActorID // scheduling actor
	seq uint64  // per-source insertion order; breaks ties deterministically
	dst *Actor  // actor the event is for
	h   Handler
	arg uint64
}

// before is the strict total order events fire in: (time, source actor,
// per-source seq). (src, seq) is unique, so there are never ties and any
// correct priority queue yields the same pop sequence — determinism does
// not depend on queue implementation details.
func (s *scheduled) before(o *scheduled) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	if s.src != o.src {
		return s.src < o.src
	}
	return s.seq < o.seq
}

// Engine is a discrete-event simulator. The zero value is ready to use; a
// standalone Engine behaves like a World without a lookahead (see
// WorldOf).
type Engine struct {
	now   Time
	q     queue // pending events in canonical order (queue.go)
	fired uint64

	world *World // nil until the engine joins (or lazily creates) a World
}

// New returns a fresh Engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting to fire.
func (e *Engine) Pending() int { return e.q.n }

// peekTime reports the earliest pending event time; ok is false when
// nothing is queued.
func (e *Engine) peekTime() (t Time, ok bool) {
	if e.q.n == 0 {
		return 0, false
	}
	return e.q.peek(), true
}

// fire executes one popped event with the clock at its timestamp.
func (e *Engine) fire(it *scheduled) {
	e.now = it.at
	e.fired++
	it.h.OnEvent(it.arg)
}

// Step fires the single earliest event, advancing the clock to its time.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	if !e.q.load(maxTime) {
		return false
	}
	it := e.q.take()
	e.fire(&it)
	return true
}

// drain fires every event with time <= last in canonical order. Events the
// handlers schedule at or before last fire within the same call.
func (e *Engine) drain(last Time) {
	for e.q.load(last) {
		it := e.q.take()
		e.fire(&it)
	}
}

// Run fires events until none remain and returns the final clock value.
// If the engine belongs to a World, the world runs it window by window
// (see World.Run); the schedule is identical either way.
func (e *Engine) Run() Time {
	if w := e.world; w != nil {
		return w.Run()
	}
	e.drain(maxTime)
	return e.now
}

// RunUntil fires events with time <= deadline, leaves later events queued,
// and advances the clock to min(deadline, last fired event time). It
// reports whether any events remain queued.
func (e *Engine) RunUntil(deadline Time) bool {
	e.drain(deadline)
	if e.now < deadline {
		e.now = deadline
	}
	return e.q.n > 0
}
