package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"hetsim/internal/cache"
	"hetsim/internal/core"
	"hetsim/internal/dram"
	"hetsim/internal/experiments"
	"hetsim/internal/memsys"
	"hetsim/internal/sim"
	"hetsim/internal/trace"
	"hetsim/internal/vm"
)

// replayLayers records the post-L1 access stream of cfgs with
// experiments.RecordTrace and replays it into each layer's public entry
// points on fresh instances, timing every call: Placer.PlacePage per
// distinct page in first-touch order, Space.Translate per access, the L2
// slice (Lookup, Insert on a miss) and MSHR file (Allocate, Fill) and DRAM
// channel (Access) each access routes to, and System.Access followed by
// Engine.Run for the whole memory system. The per-layer numbers come from
// the workload's own address mix. The L2 and DRAM hit rates are counted by
// the replayed slices and channels.
func replayLayers(cfgs []experiments.RunConfig, quick bool) (map[string]float64, error) {
	maxEvents, maxMemsys, reps := 400_000, 100_000, 3
	if quick {
		maxEvents, maxMemsys = 20_000, 5_000
	}
	var events []trace.Event
	for _, rc := range cfgs {
		if len(events) >= maxEvents {
			break
		}
		rc.Lanes = 1
		var buf bytes.Buffer
		if _, _, err := experiments.RecordTrace(rc, &buf); err != nil {
			return nil, fmt.Errorf("%s: %w", rc.Workload, err)
		}
		r, err := trace.NewReader(&buf)
		if err != nil {
			return nil, err
		}
		ev, err := trace.ReadAll(r)
		if err != nil {
			return nil, err
		}
		events = append(events, ev...)
	}
	if len(events) == 0 {
		return nil, errors.New("no events recorded")
	}
	events = events[:min(len(events), maxEvents)]
	mem := cfgs[0].Mem
	sbit := experiments.SBITFor(mem)
	m := map[string]float64{}

	// Placement: each distinct page once, in first-touch order.
	var pages []uint64
	seen := map[uint64]bool{}
	for _, e := range events {
		if p := e.VA / vm.DefaultPageSize; !seen[p] {
			seen[p] = true
			pages = append(pages, p)
		}
	}
	var space *vm.Space
	m["core.place_ns"] = medianNS(reps, len(pages), func() (func() error, error) {
		space = vm.NewSpace(vm.DefaultPageSize, unlimitedZones(mem))
		placer := core.NewPlacer(space, core.NewBWAware(sbit, cfgs[0].Seed), sbit)
		return func() error {
			for _, p := range pages {
				if _, err := placer.PlacePage(core.Request{VPage: p, Alloc: -1}); err != nil {
					return err
				}
			}
			return nil
		}, nil
	})

	// Translation, and the slice each access routes to (as memsys does).
	type route struct {
		slice int
		addr  uint64
	}
	var slices []memsys.ZoneConfig // one entry per channel slice
	base := map[vm.ZoneID]int{}
	for _, z := range mem.Zones {
		base[z.Zone] = len(slices)
		for c := 0; c < z.Channels; c++ {
			slices = append(slices, z)
		}
	}
	routes := make([]route, len(events))
	m["vm.translate_ns"] = medianNS(reps, len(events), func() (func() error, error) {
		return func() error {
			for i, e := range events {
				pa, ok := space.Translate(e.VA)
				if !ok {
					return fmt.Errorf("va %#x unmapped", e.VA)
				}
				routes[i].addr = pa
			}
			return nil
		}, nil
	})
	il := uint64(mem.InterleaveBytes)
	for i := range routes {
		pa := routes[i].addr
		z := vm.ZoneOfPA(pa)
		nch := uint64(slices[base[z]].Channels)
		chunk := vm.ZoneOffset(pa) / il
		routes[i] = route{slice: base[z] + int(chunk%nch), addr: (chunk/nch)*il + vm.ZoneOffset(pa)%il}
	}

	// L2 slices: a lookup per access, an insert per miss.
	var misses []int
	var l2 []*cache.Cache
	m["cache.l2_lookup_ns"] = medianNS(reps, len(events), func() (func() error, error) {
		l2 = make([]*cache.Cache, len(slices))
		for i := range l2 {
			l2[i] = cache.New(cache.Config{
				SizeBytes: mem.L2SliceBytes, LineBytes: mem.LineBytes, Ways: mem.L2Ways,
				Replace: mem.L2Replace, Seed: int64(i - base[slices[i].Zone]),
			})
		}
		misses = misses[:0]
		return func() error {
			for i, r := range routes {
				if !l2[r.slice].Lookup(r.addr, events[i].Write) {
					l2[r.slice].Insert(r.addr, events[i].Write)
					misses = append(misses, i)
				}
			}
			return nil
		}, nil
	})
	var hits, lookups uint64
	for _, c := range l2 {
		st := c.Stats()
		hits += st.Hits
		lookups += st.Hits + st.Misses
	}
	m["cache.l2_hit_rate"] = ratio(hits, lookups)
	if len(misses) == 0 {
		return nil, errors.New("replayed stream never missed the L2")
	}

	// MSHR files: every miss allocates (or merges into) an entry; the
	// oldest outstanding fill completes once half the file is in use.
	m["cache.mshr_alloc_fill_ns"] = medianNS(reps, len(misses), func() (func() error, error) {
		files := make([]*cache.MSHR, len(slices))
		pending := make([][]uint64, len(slices))
		for i := range files {
			files[i] = cache.NewMSHR(mem.MSHRsPerSlice)
		}
		depth := max(mem.MSHRsPerSlice/2, 1)
		return func() error {
			var w waiter
			for _, i := range misses {
				r := routes[i]
				f := files[r.slice]
				line := r.addr / uint64(mem.LineBytes)
				if f.Allocate(line, w) == cache.Allocated {
					pending[r.slice] = append(pending[r.slice], line)
				}
				if q := pending[r.slice]; len(q) >= depth {
					f.Fill(q[0], 0)
					pending[r.slice] = q[1:]
				}
			}
			return nil
		}, nil
	})

	// DRAM channels: a line fill per miss.
	var chans []*dram.Channel
	m["dram.access_ns"] = medianNS(reps, len(misses), func() (func() error, error) {
		chans = make([]*dram.Channel, len(slices))
		for i, z := range slices {
			chans[i] = dram.NewChannel(z.DRAM)
		}
		return func() error {
			for n, i := range misses {
				r := routes[i]
				chans[r.slice].Access(sim.Time(n), r.addr, false)
			}
			return nil
		}, nil
	})
	var rowHits, bursts uint64
	for _, c := range chans {
		st := c.Stats()
		rowHits += st.RowHits
		bursts += st.Reads + st.Writes
	}
	m["dram.row_hit_rate"] = ratio(rowHits, bursts)

	// The whole memory system: one access, then drain the engine.
	memEvents := events[:min(len(events), maxMemsys)]
	m["memsys.access_ns"] = medianNS(reps, len(memEvents), func() (func() error, error) {
		eng := sim.New()
		sys, err := memsys.New(eng, space, mem)
		if err != nil {
			return nil, err
		}
		done := func() {}
		return func() error {
			for _, e := range memEvents {
				sys.Access(e.VA, e.Write, done)
				eng.Run()
			}
			return nil
		}, nil
	})
	for k, v := range m {
		if v < 0 {
			return nil, fmt.Errorf("%s replay failed", k)
		}
	}
	return m, nil
}

// waiter is a fill waiter that does nothing.
type waiter struct{}

func (waiter) OnFill(sim.Time) {}

// medianNS builds a fresh instance with prepare (untimed) reps times, times
// the loop it returns, and reports the median ns per operation; -1 marks a
// failed replay.
func medianNS(reps, ops int, prepare func() (func() error, error)) float64 {
	var ns []float64
	for i := 0; i < reps; i++ {
		loop, err := prepare()
		if err != nil {
			return -1
		}
		t0 := time.Now()
		if err := loop(); err != nil {
			return -1
		}
		ns = append(ns, float64(time.Since(t0))/float64(max(ops, 1)))
	}
	return median(ns)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// hostShares folds a CPU profile's samples by the package of each
// sample's leaf frame into the hostLayers buckets, as shares of all
// samples. hetsim's own packages are their own buckets, the Go runtime is
// one, and everything else is "other".
func hostShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	leaf, err := leafFunctions(raw)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for fn, n := range leaf {
		shares[layerOf(fn)] += n
		total += n
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// layerOf maps a function name to its hostLayers bucket. Names without a
// package qualifier are the runtime's assembly routines (aeshashbody).
func layerOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 && slash < 0 {
		return "runtime"
	}
	pkg := fn
	if dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if l, ok := strings.CutPrefix(pkg, "hetsim/internal/"); ok {
		for _, h := range hostLayers {
			if h == l {
				return l
			}
		}
	}
	return "other"
}

// leafFunctions decodes an uncompressed pprof profile (the protobuf
// message perftools.profiles.Profile) and sums the first sample value by
// the name of each sample's leaf function: the innermost line of the
// sample's first location.
func leafFunctions(b []byte) (map[string]float64, error) {
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples []sample
		locFunc = map[uint64]uint64{} // location id -> leaf function id
		funcStr = map[uint64]int64{}  // function id -> name string index
		strs    []string
	)
	err := pbFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var seenLoc, seenVal bool
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1: // location_id, packed or not
					return pbVarints(data, v, func(x uint64) {
						if !seenLoc {
							s.loc, seenLoc = x, true
						}
					})
				case 2: // value
					return pbVarints(data, v, func(x uint64) {
						if !seenVal {
							s.value, seenVal = int64(x), true
						}
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			var seenLine bool
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					if seenLine {
						return nil
					}
					seenLine = true
					return pbFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		name := "unknown"
		if fn, ok := locFunc[s.loc]; ok {
			if i := funcStr[fn]; i >= 0 && int(i) < len(strs) {
				name = strs[i]
			}
		}
		out[name] += float64(s.value)
	}
	return out, nil
}

var errPB = errors.New("malformed profile")

// pbFields calls fn for each field of a protobuf message: varint fields
// with their value, length-delimited fields with their bytes. Fixed-width
// fields are skipped.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errPB
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errPB
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errPB
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errPB
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errPB
			}
			b = b[4:]
		default:
			return errPB
		}
	}
	return nil
}

// pbVarints calls fn for a repeated varint field: each value of a packed
// field's bytes, or the single value v of an unpacked one.
func pbVarints(data []byte, v uint64, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			return errPB
		}
		fn(x)
		data = data[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
