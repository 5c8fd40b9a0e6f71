package workloads

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"hetsim/internal/gpu"
	"hetsim/internal/gpurt"
)

// phasesOf drains progs and returns every phase they produce, warp by
// warp, with its addresses copied out of the program's buffer.
func phasesOf(progs []gpu.WarpProgram) []gpu.Phase {
	var out []gpu.Phase
	for _, p := range progs {
		for {
			ph, ok := p.NextPhase()
			if !ok {
				break
			}
			ph.Addrs = slices.Clone(ph.Addrs)
			out = append(out, ph)
		}
	}
	return out
}

func equalPhases(a, b []gpu.Phase) bool {
	return slices.EqualFunc(a, b, func(x, y gpu.Phase) bool {
		return x.ComputeCycles == y.ComputeCycles && x.MLP == y.MLP && x.Overlap == y.Overlap &&
			slices.Equal(x.Addrs, y.Addrs)
	})
}

// allocateAfter allocates s's structures behind a pad-byte allocation, so
// that pad moves every base.
func allocateAfter(t testing.TB, s *Spec, pad uint64) []gpurt.Allocation {
	t.Helper()
	rt := testRuntime()
	if pad > 0 {
		if _, err := rt.Malloc("pad", pad, HintNone); err != nil {
			t.Fatal(err)
		}
	}
	allocs, err := s.Allocate(rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

func modeOf(progs []gpu.WarpProgram) streamMode { return progs[0].(*warpProgram).slab.mode }

// TestReplayMatchesGeneration: for every registered workload under every
// dataset, the recording run issues the phases a generating one does, and
// a replaying run, on allocations at other bases, issues the phases a
// generating run on those allocations does.
func TestReplayMatchesGeneration(t *testing.T) {
	for _, name := range AllNames() {
		for _, ds := range append([]Dataset{Train()}, Variants()...) {
			s := MustBuild(name, ds)
			s.Shrink(16)
			allocs, moved := allocateAfter(t, &s, 0), allocateAfter(t, &s, 1<<20)
			if moved[0].Base == allocs[0].Base {
				t.Fatal("the pad did not move the allocations")
			}
			st := &streamStore{budget: streamBudget}
			rec := programs(&s, allocs, st)
			if modeOf(rec) != recording {
				t.Fatalf("%s/%s: first programs in mode %d, want recording", name, ds.Name, modeOf(rec))
			}
			if !equalPhases(phasesOf(rec), phasesOf(freshPrograms(&s, allocs))) {
				t.Fatalf("%s/%s: recording programs issue other phases than generating ones", name, ds.Name)
			}
			ReleasePrograms(rec)
			rep := programs(&s, moved, st)
			if modeOf(rep) != replaying {
				t.Fatalf("%s/%s: programs after a published run in mode %d, want replaying", name, ds.Name, modeOf(rep))
			}
			if !equalPhases(phasesOf(rep), phasesOf(freshPrograms(&s, moved))) {
				t.Fatalf("%s/%s: replayed phases differ from generated ones", name, ds.Name)
			}
			ReleasePrograms(rep)
		}
	}
}

// TestStreamKeyCoversEverySpecField changes each field reachable from a
// Spec, found by reflection, one at a time, and requires a new key; so
// does a longer structure list. A field of a kind the walk does not know
// fails the test, so a new field cannot be left out of appendKey.
func TestStreamKeyCoversEverySpecField(t *testing.T) {
	base := BFS(Train())
	key := string(base.appendKey(nil))
	clone := func() Spec {
		s := base
		s.Structures = slices.Clone(base.Structures)
		return s
	}
	fields := 0 // leaves changed, and the structure list
	var walk func(path string, at func(*Spec) reflect.Value)
	walk = func(path string, at func(*Spec) reflect.Value) {
		s := clone()
		v := at(&s)
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, func(s *Spec) reflect.Value { return at(s).Field(i) })
			}
			return
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), func(s *Spec) reflect.Value { return at(s).Index(i) })
			}
			v.Set(reflect.Append(v, v.Index(0)))
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		default:
			t.Fatalf("%s: the walk does not know kind %s", path, v.Kind())
		}
		fields++
		if string(s.appendKey(nil)) == key {
			t.Errorf("changing %s leaves the key unchanged", path)
		}
	}
	walk("Spec", func(s *Spec) reflect.Value { return reflect.ValueOf(s).Elem() })
	t.Logf("changed %d fields", fields)
}

// TestUnpackableSpecGeneratedEveryRun: a spec with more structures than a
// word can index is generated on every run, publishes nothing and issues
// the stream a generating run does. A structure with more lines than a
// word can hold makes a spec unpackable too, and the largest that fits
// round-trips through a word.
func TestUnpackableSpecGeneratedEveryRun(t *testing.T) {
	s := BFS(Train())
	s.Shrink(16)
	for i := 0; len(s.Structures) <= maxRecordedStructures; i++ {
		st := s.Structures[i]
		st.Label += "'"
		s.Structures = append(s.Structures, st)
	}
	if s.packable() {
		t.Fatalf("a spec with %d structures is packable", len(s.Structures))
	}
	allocs := allocateAfter(t, &s, 0)
	want := phaseStream(freshPrograms(&s, allocs))
	st := &streamStore{budget: streamBudget}
	for run := range 2 {
		progs := programs(&s, allocs, st)
		if modeOf(progs) != generating {
			t.Fatalf("run %d: programs in mode %d, want generating", run, modeOf(progs))
		}
		if got := phaseStream(progs); !slices.Equal(got, want) {
			t.Fatalf("run %d: the stream differs from a generating run's", run)
		}
		ReleasePrograms(progs)
		if len(st.byKey) != 0 {
			t.Fatalf("run %d published an unpackable stream", run)
		}
	}

	big := BFS(Train())
	big.Structures[0].Size = maxRecordedLines * LineBytes
	big.Structures[0].Pattern.TouchFrac = 1
	if !big.packable() {
		t.Fatalf("a structure of %d lines is unpackable", maxRecordedLines)
	}
	if line, si, write := unpack(pack((maxRecordedLines-1)*LineBytes, maxRecordedStructures-1, true)); line != maxRecordedLines-1 || si != maxRecordedStructures-1 || !write {
		t.Fatalf("the largest access unpacks as line %d, structure %d, write %v", line, si, write)
	}
	big.Structures[0].Size += LineBytes
	if big.packable() {
		t.Fatalf("a structure of %d lines is packable", maxRecordedLines+1)
	}
}

// TestConcurrentRecordingPublishesOnce: four goroutines build programs of
// one new spec at once, so all four record it; they drain and release
// them, then build, drain and release twice more, replaying. Every stream
// must equal a generating run's, and the store must hold one stream.
func TestConcurrentRecordingPublishesOnce(t *testing.T) {
	s := Phased(Train())
	s.Shrink(16)
	allocs := allocateAfter(t, &s, 0)
	want := phaseStream(freshPrograms(&s, allocs))
	st := &streamStore{budget: streamBudget}
	var built, wg sync.WaitGroup
	built.Add(4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 3 {
				progs := programs(&s, allocs, st)
				if r == 0 {
					built.Done()
					built.Wait()
					if modeOf(progs) != recording {
						t.Errorf("goroutine %d: first programs in mode %d, want recording", g, modeOf(progs))
					}
				} else if modeOf(progs) != replaying {
					t.Errorf("goroutine %d, build %d: programs in mode %d, want replaying", g, r, modeOf(progs))
				}
				got := phaseStream(progs)
				ReleasePrograms(progs)
				if !slices.Equal(got, want) {
					t.Errorf("goroutine %d, build %d: the stream differs from a generating run's", g, r)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(st.byKey) != 1 {
		t.Fatalf("the store holds %d streams, want 1", len(st.byKey))
	}
}

// TestUnfinishedProgramsPublishNothing: programs released without running,
// or before their last phase, publish nothing, and nothing is allocated
// for recording before a program's first phase. Programs that ran to the
// end publish their stream at release.
func TestUnfinishedProgramsPublishNothing(t *testing.T) {
	s := BFS(Train())
	s.Shrink(16)
	allocs := allocateAfter(t, &s, 0)
	st := &streamStore{budget: streamBudget}

	progs := programs(&s, allocs, st)
	if slab := progs[0].(*warpProgram).slab; slab.mode != recording || slab.record != nil {
		t.Fatalf("programs before their first phase: mode %d, record of %d words; want recording, none", slab.mode, len(slab.record))
	}
	ReleasePrograms(progs)
	if len(st.byKey) != 0 {
		t.Fatal("programs released without running published a stream")
	}

	progs = programs(&s, allocs, st)
	phaseStream(progs[:len(progs)-1])
	last := progs[len(progs)-1]
	for range s.PhasesPerWarp - 1 {
		last.NextPhase()
	}
	ReleasePrograms(progs)
	if len(st.byKey) != 0 {
		t.Fatal("programs released before their last phase published a stream")
	}

	progs = programs(&s, allocs, st)
	phaseStream(progs)
	ReleasePrograms(progs)
	if len(st.byKey) != 1 {
		t.Fatalf("programs released after their last phase published %d streams, want 1", len(st.byKey))
	}
}

// TestStreamStoreEvictsLeastRecentlyUsed: a store over its budget evicts
// the stream least recently published or looked up, refuses a stream
// larger than its budget, and replaying programs keep the windows of a
// stream evicted while they run.
func TestStreamStoreEvictsLeastRecentlyUsed(t *testing.T) {
	words := make([]uint32, 100)
	st := &streamStore{budget: 3 * streamBytes(1, len(words))}
	for _, k := range []string{"a", "b", "c"} {
		st.publish([]byte(k), words)
	}
	if st.lookup([]byte("a")) == nil {
		t.Fatal("the store lost a stream within its budget")
	}
	st.publish([]byte("d"), words)
	for k, held := range map[string]bool{"a": true, "b": false, "c": true, "d": true} {
		if (st.byKey[k] != nil) != held {
			t.Errorf("stream %q held: %v, want %v", k, !held, held)
		}
	}
	if st.bytes != st.budget {
		t.Errorf("the store counts %d bytes, want %d", st.bytes, st.budget)
	}
	st.publish([]byte("e"), make([]uint32, st.budget/4+1))
	if st.byKey["e"] != nil || len(st.byKey) != 3 {
		t.Error("the store took a stream larger than its budget")
	}

	s := BFS(Train())
	s.Shrink(16)
	allocs := allocateAfter(t, &s, 0)
	key := s.appendKey(nil)
	st = &streamStore{budget: streamBytes(len(key), int(s.TotalAccesses()))}
	rec := programs(&s, allocs, st)
	phaseStream(rec)
	ReleasePrograms(rec)
	rep := programs(&s, allocs, st)
	if modeOf(rep) != replaying {
		t.Fatalf("programs in mode %d, want replaying", modeOf(rep))
	}
	other := slices.Clone(key)
	other[len(other)-1]++
	st.publish(other, make([]uint32, s.TotalAccesses()))
	if st.lookup(key) != nil {
		t.Fatal("the replayed stream was not evicted")
	}
	if got, want := phaseStream(rep), phaseStream(freshPrograms(&s, allocs)); !slices.Equal(got, want) {
		t.Fatal("replaying programs issue another stream after their stream's eviction")
	}
}

// BenchmarkProgramsNextPhase builds, drains and releases the programs of
// bfs at Shrink 8, generating their stream and replaying a recorded one,
// and reports the time and allocations per access.
func BenchmarkProgramsNextPhase(b *testing.B) {
	s := BFS(Train())
	s.Shrink(8)
	allocs := allocateAfter(b, &s, 0)
	recorded := &streamStore{budget: streamBudget}
	progs := programs(&s, allocs, recorded)
	phaseStream(progs)
	ReleasePrograms(progs)
	for _, c := range []struct {
		name string
		st   *streamStore
		mode streamMode
	}{{"generate", &streamStore{}, generating}, {"replay", recorded, replaying}} {
		b.Run(c.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				progs := programs(&s, allocs, c.st)
				if modeOf(progs) != c.mode {
					b.Fatalf("programs in mode %d, want %d", modeOf(progs), c.mode)
				}
				for _, p := range progs {
					for _, ok := p.NextPhase(); ok; _, ok = p.NextPhase() {
					}
				}
				ReleasePrograms(progs)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			accesses := float64(b.N) * float64(s.TotalAccesses())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/accesses, "ns/access")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/accesses, "allocs/access")
		})
	}
}
