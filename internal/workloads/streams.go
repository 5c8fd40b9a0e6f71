package workloads

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
)

// A warp's access stream depends on its spec alone: the generators draw
// from the warp's seeded source over the spec's structures, and placement
// decides only which pool a page lives in, never which line a warp
// touches. The figures simulate the same few specs under every policy,
// ratio, capacity and topology, so the first run of a spec records its
// stream and every later run in the process replays it.
//
// A recorded access is one packed word: the write bit, then the
// structure's index, then the line within the structure. Replay adds the
// run's own allocation base to the line's offset.
const (
	wordStructBits = 4
	wordLineShift  = 1 + wordStructBits
	// maxRecordedStructures and maxRecordedLines bound the specs a word
	// can hold; a larger spec is generated on every run.
	maxRecordedStructures = 1 << wordStructBits
	maxRecordedLines      = 1 << (32 - wordLineShift)

	// streamBudget bounds the bytes the process-wide store holds, keys
	// included.
	streamBudget = 64 << 20
)

// pack returns the word of an access at byte offset off of structure si.
func pack(off uint64, si int, write bool) uint32 {
	x := uint32(off/LineBytes)<<wordLineShift | uint32(si)<<1
	if write {
		x |= 1
	}
	return x
}

// unpack returns the line, structure index and write bit of word x.
func unpack(x uint32) (line uint64, si int, write bool) {
	return uint64(x >> wordLineShift), int(x >> 1 & (maxRecordedStructures - 1)), x&1 != 0
}

// packable reports whether every access of s fits a packed word.
func (s *Spec) packable() bool {
	if len(s.Structures) > maxRecordedStructures {
		return false
	}
	for _, st := range s.Structures {
		if st.Pattern.touchedLines(st.Size) > maxRecordedLines {
			return false
		}
	}
	return true
}

// appendKey appends s's full encoding to b: every field of the spec, its
// structures and their patterns, floats by their bits, strings and the
// structure list with their lengths. Two specs have equal keys exactly
// when every field is equal (floats bit for bit), so a key never needs
// a second comparison.
func (s *Spec) appendKey(b []byte) []byte {
	// Room for the whole key when labels are under 56 bytes, so that a new
	// buffer is one allocation.
	b = slices.Grow(b, 128+len(s.Name)+len(s.Suite)+128*len(s.Structures))
	u := binary.LittleEndian.AppendUint64
	str := func(b []byte, v string) []byte { return append(u(b, uint64(len(v))), v...) }
	f := func(b []byte, v float64) []byte { return u(b, math.Float64bits(v)) }
	b = str(b, s.Name)
	b = str(b, s.Suite)
	b = u(b, uint64(s.Class))
	b = u(b, uint64(len(s.Structures)))
	for _, st := range s.Structures {
		b = str(b, st.Label)
		b = u(b, st.Size)
		b = f(b, st.Weight)
		b = f(b, st.WriteFrac)
		p := st.Pattern
		b = u(b, uint64(p.Kind))
		b = u(b, uint64(p.StrideLines))
		b = f(b, p.ZipfS)
		b = f(b, p.TouchFrac)
		b = u(b, uint64(p.Lanes))
	}
	b = u(b, uint64(s.Warps))
	b = u(b, uint64(s.PhasesPerWarp))
	b = u(b, uint64(s.AccessesPerPhase))
	b = u(b, uint64(s.ComputeCycles))
	b = u(b, uint64(s.MLP))
	if s.Overlap {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = f(b, s.WeightDrift)
	return u(b, uint64(s.Seed))
}

// streamStore holds recorded streams by spec key, at most budget bytes of
// words and keys, and evicts the least recently used stream first. A
// stream's words are never written once published, so programs that
// replay it keep their windows when it is evicted. The zero store holds
// nothing and so records nothing.
type streamStore struct {
	budget int
	mu     sync.Mutex
	byKey  map[string]*stream
	bytes  int
	clock  uint64 // counts lookups that hit and publications
}

type stream struct {
	words []uint32
	used  uint64 // the store's clock at its last hit or publication
}

// streams is the store Spec.Programs replays from and ReleasePrograms
// publishes to.
var streams = &streamStore{budget: streamBudget}

// streamBytes is what a stream of words words under a key of keyLen bytes
// counts against the budget.
func streamBytes(keyLen, words int) int { return keyLen + 4*words }

// fits reports whether a stream of words words under key could be held.
func (st *streamStore) fits(key []byte, words uint64) bool {
	room := st.budget - len(key)
	return words > 0 && room >= 0 && words <= uint64(room)/4
}

// lookup returns the words recorded under key, or nil.
func (st *streamStore) lookup(key []byte) []uint32 {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.byKey[string(key)]
	if r == nil {
		return nil
	}
	st.clock++
	r.used = st.clock
	return r.words
}

// publish stores words under key, unless the key is already held (a run
// that recorded the same spec at the same time published first) or the
// stream cannot fit, then evicts least recently used streams until the
// store is within its budget. The store keeps words, which no one may
// write again.
func (st *streamStore) publish(key []byte, words []uint32) {
	if !st.fits(key, uint64(len(words))) {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.byKey[string(key)] != nil {
		return
	}
	if st.byKey == nil {
		st.byKey = make(map[string]*stream)
	}
	st.clock++
	st.byKey[string(key)] = &stream{words: words, used: st.clock}
	st.bytes += streamBytes(len(key), len(words))
	for st.bytes > st.budget {
		// The new stream is the most recent and fits alone, so it stays.
		var lruKey string
		var lru *stream
		for k, r := range st.byKey {
			if lru == nil || r.used < lru.used {
				lruKey, lru = k, r
			}
		}
		st.bytes -= streamBytes(len(lruKey), len(lru.words))
		delete(st.byKey, lruKey)
	}
}
