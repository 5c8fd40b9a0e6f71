package trace

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"hetsim/internal/cache"
	"hetsim/internal/gpu"
	"hetsim/internal/sim"
	"hetsim/internal/vm"
)

func TestRoundTrip(t *testing.T) {
	events := []Event{
		{VA: 0, Write: false},
		{VA: 128, Write: true},
		{VA: 4096, Write: false},
		{VA: 64, Write: false}, // backwards delta
		{VA: 1 << 40, Write: true},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(events)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(events))
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("Read of empty trace = %v, want EOF", err)
	}
}

func TestBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestCompactness(t *testing.T) {
	// Sequential stream: ~1-2 bytes per event.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 10000
	for i := 0; i < n; i++ {
		w.Write(Event{VA: uint64(i) * 128})
	}
	w.Flush()
	if perEvent := float64(buf.Len()) / n; perEvent > 2.5 {
		t.Fatalf("sequential trace uses %.1f bytes/event, want <= 2.5", perEvent)
	}
}

// Property: arbitrary event sequences round-trip exactly.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(vas []uint32, writes []bool) bool {
		events := make([]Event, len(vas))
		for i, v := range vas {
			events[i] = Event{VA: uint64(v) * 64, Write: i < len(writes) && writes[i]}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, e := range events {
			if w.Write(e) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := ReadAll(r)
		if err != nil || len(got) != len(events) {
			return false
		}
		for i := range events {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// countMem completes every access one cycle later and logs it.
type countMem struct {
	events []Event
}

func (m *countMem) AccessH(src *sim.Actor, va uint64, write bool, tc *vm.TransCache, h sim.Handler, arg uint64) {
	m.events = append(m.events, Event{VA: va, Write: write})
	src.After(1, h, arg)
}

// doneCounter counts completions.
type doneCounter struct{ n int }

func (d *doneCounter) OnEvent(uint64) { d.n++ }

func TestRecorderTapsAccesses(t *testing.T) {
	eng := sim.New()
	root := sim.WorldOf(eng).Root()
	inner := &countMem{}
	var buf bytes.Buffer
	rec := &Recorder{Mem: inner, W: NewWriter(&buf)}
	var done doneCounter
	rec.AccessH(root, 128, false, nil, &done, 0)
	rec.AccessH(root, 256, true, nil, &done, 0)
	eng.Run()
	if done.n != 2 {
		t.Fatalf("%d completions forwarded, want 2", done.n)
	}
	rec.W.Flush()
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	if len(inner.events) != 2 {
		t.Fatalf("inner memory saw %d accesses, want 2", len(inner.events))
	}
	r, _ := NewReader(&buf)
	got, _ := ReadAll(r)
	if len(got) != 2 || got[1] != (Event{VA: 256, Write: true}) {
		t.Fatalf("recorded %+v", got)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestRecorderDegradesOnError(t *testing.T) {
	eng := sim.New()
	root := sim.WorldOf(eng).Root()
	inner := &countMem{}
	rec := &Recorder{Mem: inner, W: NewWriter(failWriter{})}
	var done doneCounter
	rec.AccessH(root, 0, false, nil, &done, 0)
	rec.AccessH(root, 128, false, nil, &done, 0)
	eng.Run()
	// Small writes sit in the bufio buffer; the error surfaces at Flush at
	// the latest.
	if rec.Err == nil && rec.W.Flush() == nil {
		t.Fatal("write error not surfaced")
	}
	if len(inner.events) != 2 {
		t.Fatal("simulation traffic lost after trace error")
	}
}

func TestReplayProgramsCoverTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	events := make([]Event, 101) // deliberately not a multiple of the chunking
	for i := range events {
		events[i] = Event{VA: uint64(rng.Intn(1 << 20))}
	}
	cfg := ReplayConfig{Warps: 4, AccessesPerPhase: 8, MLP: 4}
	progs, err := Programs(events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 4 {
		t.Fatalf("%d programs, want 4", len(progs))
	}
	seen := map[uint64]int{}
	total := 0
	for _, p := range progs {
		for {
			ph, ok := p.NextPhase()
			if !ok {
				break
			}
			if len(ph.Addrs) == 0 || len(ph.Addrs) > cfg.AccessesPerPhase {
				t.Fatalf("phase has %d addrs", len(ph.Addrs))
			}
			for _, a := range ph.Addrs {
				seen[a.VA]++
				total++
			}
		}
	}
	if total != len(events) {
		t.Fatalf("replayed %d accesses, want %d", total, len(events))
	}
	for _, e := range events {
		if seen[e.VA] == 0 {
			t.Fatalf("event VA %#x never replayed", e.VA)
		}
	}
}

func TestReplayConfigValidate(t *testing.T) {
	if _, err := Programs(nil, ReplayConfig{Warps: 0, AccessesPerPhase: 1}); err == nil {
		t.Fatal("zero warps accepted")
	}
	if _, err := Programs(nil, ReplayConfig{Warps: 1, AccessesPerPhase: 0}); err == nil {
		t.Fatal("zero chunk accepted")
	}
}

// End-to-end: record a tiny run, replay it, and check the replay drives the
// same number of accesses into memory.
func TestRecordThenReplay(t *testing.T) {
	eng := sim.New()
	root := sim.WorldOf(eng).Root()
	inner := &countMem{}
	var buf bytes.Buffer
	rec := &Recorder{Mem: inner, W: NewWriter(&buf)}
	var done doneCounter
	for i := 0; i < 50; i++ {
		rec.AccessH(root, uint64(i)*128, i%3 == 0, nil, &done, 0)
	}
	eng.Run()
	rec.W.Flush()

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := Programs(events, ReplayConfig{Warps: 2, AccessesPerPhase: 4, MLP: 2})
	if err != nil {
		t.Fatal(err)
	}

	eng2 := sim.New()
	replayMem := &countMem{}
	g := gpu.New(eng2, replayMem, gpu.Config{
		SMs: 1, WarpsPerSM: 4,
		L1:        cacheCfg(),
		L1Latency: 1,
	})
	g.Launch(progs)
	g.Run()
	// The L1 may filter some repeats, but every line is distinct here.
	if len(replayMem.events) != 50 {
		t.Fatalf("replay drove %d accesses, want 50", len(replayMem.events))
	}
}

func cacheCfg() cache.Config {
	return cache.Config{SizeBytes: 4096, LineBytes: 128, Ways: 4}
}
