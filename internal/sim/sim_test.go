package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// handlerFunc adapts a closure to Handler for tests.
type handlerFunc func(uint64)

func (f handlerFunc) OnEvent(arg uint64) { f(arg) }

// recorder appends each event's arg to out.
type recorder struct{ out *[]int }

func (r recorder) OnEvent(arg uint64) { *r.out = append(*r.out, int(arg)) }

func TestZeroValueReady(t *testing.T) {
	var e Engine
	ran := false
	WorldOf(&e).Root().At(0, handlerFunc(func(uint64) { ran = true }), 0)
	e.Run()
	if !ran {
		t.Fatal("event at t=0 did not run")
	}
}

func TestOrdering(t *testing.T) {
	e := New()
	root := WorldOf(e).Root()
	var got []int
	for _, at := range []Time{30, 10, 20, 10, 5} {
		root.At(at, recorder{&got}, uint64(at))
	}
	e.Run()
	want := []int{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %d, want %d (full order %v)", i, got[i], want[i], got)
		}
	}
}

func TestTieBreakInsertionOrder(t *testing.T) {
	e := New()
	root := WorldOf(e).Root()
	var got []int
	for i := 0; i < 10; i++ {
		root.At(42, recorder{&got}, uint64(i))
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of insertion order: %v", got)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := New()
	root := WorldOf(e).Root()
	root.At(100, handlerFunc(func(uint64) {
		root.After(5, handlerFunc(func(uint64) {
			if e.Now() != 105 {
				t.Errorf("Now() = %d inside nested event, want 105", e.Now())
			}
		}), 0)
	}), 0)
	end := e.Run()
	if end != 105 {
		t.Fatalf("Run() = %d, want 105", end)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	root := WorldOf(e).Root()
	root.At(10, handlerFunc(func(uint64) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		root.At(5, nopHandler{}, 0)
	}), 0)
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := New()
	root := WorldOf(e).Root()
	fired := 0
	count := handlerFunc(func(uint64) { fired++ })
	for _, at := range []Time{1, 2, 3, 10, 20} {
		root.At(at, count, 0)
	}
	remaining := e.RunUntil(5)
	if fired != 3 {
		t.Fatalf("fired %d events by t=5, want 3", fired)
	}
	if !remaining {
		t.Fatal("RunUntil reported no remaining events, want 2 remaining")
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %d after RunUntil(5), want 5", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	if e.RunUntil(100) {
		t.Fatal("events remain after RunUntil(100)")
	}
	if fired != 5 {
		t.Fatalf("fired %d total events, want 5", fired)
	}
}

func TestFiredCount(t *testing.T) {
	e := New()
	root := WorldOf(e).Root()
	for i := 0; i < 7; i++ {
		root.At(Time(i), nopHandler{}, 0)
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

// Property: for any set of event times, events fire in nondecreasing time
// order and the final clock equals the maximum scheduled time.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		e := New()
		root := WorldOf(e).Root()
		var fired []int
		for _, u := range times {
			root.At(Time(u), recorder{&fired}, uint64(u))
		}
		end := e.Run()
		if !sort.IntsAreSorted(fired) {
			return false
		}
		max := Time(0)
		for _, u := range times {
			if Time(u) > max {
				max = Time(u)
			}
		}
		return end == max && len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cascading events (each schedules a random follow-up) never
// violate clock monotonicity. arg is the remaining cascade depth.
func TestPropertyCascade(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := New()
	root := WorldOf(e).Root()
	last := Time(-1)
	var spawn handlerFunc
	spawn = func(depth uint64) {
		if e.Now() < last {
			t.Fatalf("clock went backwards: %d after %d", e.Now(), last)
		}
		last = e.Now()
		if depth == 0 {
			return
		}
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			root.After(Time(rng.Intn(50)), spawn, depth-1)
		}
	}
	for i := 0; i < 20; i++ {
		root.At(Time(rng.Intn(100)), spawn, 6)
	}
	e.Run()
}
