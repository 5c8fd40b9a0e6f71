package main

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetsim/internal/experiments"
	"hetsim/internal/telemetry"
)

// A workload is one traffic mix of the benchmark.
type workload interface {
	// setup generates the inputs from the seed and builds what the timed
	// phase needs; it is repeated and timed (setup_s).
	setup() error
	// measure runs the timed phase until ph's budget is spent, always at
	// least one pass.
	measure(ph *phase) error
	// finish runs the end-of-run output checks.
	finish(c *checks)
	// digest is the sha256 of the first pass's output.
	digest() string
	// replayConfigs are the runs whose post-L1 streams the layer replay
	// records.
	replayConfigs() []experiments.RunConfig
	// layerMetrics are the per-layer metrics the workload measures itself.
	layerMetrics() map[string]float64
}

func newWorkload(name string, p params, logged *atomic.Int64) workload {
	switch name {
	case "run-bw":
		return &runLoop{p: p, gen: runBW, logged: logged}
	case "run-compute":
		return &runLoop{p: p, gen: runCompute, logged: logged}
	case "migrate-cxl":
		return &runLoop{p: p, gen: migrateCXL, logged: logged}
	case "figures":
		return &figurePass{p: p, figureMS: map[string][]float64{}}
	case "serve-cluster":
		return &serveCluster{p: p}
	}
	panic("hetbench: unknown workload " + name)
}

// checks collects failed output checks.
type checks struct {
	mu       sync.Mutex
	problems []string
}

func (c *checks) fail(format string, a ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, a...))
	}
}

// phase collects the measurements of one timed phase. The op, pass and
// counter fields are written by one goroutine at a time, except through
// addOp, which concurrent clients use.
type phase struct {
	budget time.Duration
	start  time.Time
	tr     *tracer     // nil when untraced
	cal    *calibrator // nil when not calibrating
	c      *checks

	mu        sync.Mutex
	ops       []float64 // per-operation latency, ms
	attempted int
	failed    int

	passes   []float64 // per-pass wall time, s
	accesses uint64    // simulated post-L1 accesses
	simWall  time.Duration
	opsWall  time.Duration // wall time the ops ran in, for ops_per_s
}

func newPhase(budget time.Duration, tr *tracer, cal *calibrator, c *checks) *phase {
	return &phase{budget: budget, start: time.Now(), tr: tr, cal: cal, c: c}
}

// addOp records one operation and its latency; a non-empty problem marks
// it failed.
func (ph *phase) addOp(d time.Duration, problem string) {
	ph.mu.Lock()
	ph.ops = append(ph.ops, float64(d)/1e6)
	ph.mu.Unlock()
	ph.attempt(problem)
}

// attempt counts one operation whose latency is not an op latency.
func (ph *phase) attempt(problem string) {
	ph.mu.Lock()
	ph.attempted++
	if problem != "" {
		ph.failed++
	}
	ph.mu.Unlock()
	if problem != "" {
		ph.c.fail("%s", problem)
	}
}

// loop runs pass until the budget is spent and stops before a pass it
// projects to end past the budget, so a run lasts about its budget however
// long a pass takes. Each pass is one trace when traced, and is followed by
// a calibration sample.
func (ph *phase) loop(name string, pass func() error) error {
	for i := 0; ; i++ {
		ph.tr.beginPass(name)
		t0 := time.Now()
		err := pass()
		ph.passes = append(ph.passes, time.Since(t0).Seconds())
		ph.tr.endPass()
		if err != nil {
			return err
		}
		ph.cal.sample()
		el := time.Since(ph.start)
		if el+el/time.Duration(i+1) > ph.budget {
			ph.opsWall = el
			return nil
		}
	}
}

// tracer records the benchmark's own spans, and those of the program
// below them, into a private recorder: one trace per pass.
type tracer struct {
	rec   *telemetry.Recorder
	root  *telemetry.Span
	first string // trace ID of the first pass
}

const benchProc = "hetbench"

func newTracer() *tracer {
	rec := telemetry.NewRecorder()
	rec.SetProc(benchProc)
	// Warm serve requests alone would fill the default buffer; the first
	// passes, which the simulated counters come from, are kept.
	rec.SetMaxSpans(1 << 15)
	rec.SetEnabled(true)
	return &tracer{rec: rec}
}

func (t *tracer) beginPass(name string) {
	if t == nil {
		return
	}
	tr := t.rec.Trace("")
	t.root = tr.Start(nil, name)
	if t.first == "" {
		t.first = tr.ID()
	}
}

func (t *tracer) endPass() {
	if t != nil {
		t.root.End()
	}
}

// span starts a child of the current pass (nil when untraced).
func (t *tracer) span(name string) *telemetry.Span {
	if t == nil {
		return nil
	}
	return t.root.Child(name)
}

// recorder is the recorder the program's own spans go to (nil untraced).
func (t *tracer) recorder() *telemetry.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// laneFallbackMsg is the warning experiments logs for every run that asked
// for several event lanes but ran on one.
const laneFallbackMsg = "experiments: run falls back to one event lane"

// fallbackCounter counts lane-fallback warnings instead of printing one
// line per run, and passes every other record on.
type fallbackCounter struct {
	slog.Handler
	n *atomic.Int64
}

func (h fallbackCounter) Handle(ctx context.Context, r slog.Record) error {
	if r.Message == laneFallbackMsg {
		h.n.Add(1)
		return nil
	}
	return h.Handler.Handle(ctx, r)
}

func (h fallbackCounter) WithAttrs(as []slog.Attr) slog.Handler {
	return fallbackCounter{h.Handler.WithAttrs(as), h.n}
}

func (h fallbackCounter) WithGroup(name string) slog.Handler {
	return fallbackCounter{h.Handler.WithGroup(name), h.n}
}

// runWorkload runs one workload in this process and reports its
// end-to-end metrics, or with p.trace its per-layer metrics.
func runWorkload(name string, p params) (*report, error) {
	var logged atomic.Int64
	slog.SetDefault(slog.New(fallbackCounter{slog.NewTextHandler(os.Stderr, nil), &logged}))
	w := newWorkload(name, p, &logged)
	c := &checks{}
	cal := newCalibrator()
	cal.sample()
	cal.sample()

	reps := 5
	if p.quick {
		reps = 2
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	budget := time.Duration(p.seconds) * time.Second
	var rep *report
	if !p.trace {
		ph := newPhase(budget, nil, cal, c)
		if err := w.measure(ph); err != nil {
			return nil, err
		}
		w.finish(c)
		rep = newReport(endToEnd)
		rep.Attempted, rep.Failed = ph.attempted, ph.failed
		slow := cal.slowdown()
		rep.set("setup_s", median(setups)/slow)
		rep.set("sim_accesses_per_s", float64(ph.accesses)/ph.simWall.Seconds()*slow)
		rep.set("op_p50_ms", quantile(ph.ops, 0.5)/slow)
		rep.set("op_p90_ms", quantile(ph.ops, 0.9)/slow)
		rep.set("pass_s", median(ph.passes)/slow)
		rep.set("ops_per_s", float64(len(ph.ops))/ph.opsWall.Seconds()*slow)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.set("peak_rss_mb", rss)
	} else {
		var err error
		if rep, err = traceWorkload(name, w, p, budget, cal, c); err != nil {
			return nil, err
		}
	}

	rep.calibMS = median(cal.samples)
	rep.digest = w.digest()
	if err := checkGolden(name, p, rep.digest); err != nil {
		c.fail("%v", err)
	}
	for _, d := range rep.defs {
		if v := rep.Metrics[d.name].Value; math.IsInf(v, 0) || !(v > 0 || p.trace && v == 0) {
			c.fail("%s reads %v", d.name, v)
			rep.Metrics[d.name] = metric{Value: 0, Unit: d.unit}
		}
	}
	rep.problems = c.problems
	rep.Correct = rep.Failed == 0 && len(c.problems) == 0
	return rep, nil
}

// traceWorkload measures the workload untraced for a third of the budget
// and traced, with a CPU profile and no calibration, for half of it; then
// replays the workload's recorded access stream into each layer.
func traceWorkload(name string, w workload, p params, budget time.Duration, cal *calibrator, c *checks) (*report, error) {
	ref := newPhase(budget/3, nil, cal, c)
	if err := w.measure(ref); err != nil {
		return nil, err
	}

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	ph := newPhase(budget/2, tr, nil, c)
	err := w.measure(ph)
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	w.finish(c)

	rep := newReport(perLayer)
	rep.Attempted, rep.Failed = ref.attempted+ph.attempted, ref.failed+ph.failed
	for _, d := range perLayer {
		rep.set(d.name, 0)
	}
	for k, v := range spanMetrics(tr) {
		rep.set(k, v)
	}
	shares, err := hostShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, l := range hostLayers {
		rep.set(l+".host_share", shares[l])
	}
	if used := rt1.cpu - rt1.idle - (rt0.cpu - rt0.idle); used > 0 {
		rep.set("runtime.gc_cpu_fraction", (rt1.gc-rt0.gc)/used)
	}
	if ph.accesses > 0 {
		rep.set("runtime.alloc_bytes_per_access", (rt1.alloc-rt0.alloc)/float64(ph.accesses))
	}
	if r := quantile(ref.ops, 0.5); r > 0 {
		rep.set("trace_overhead", quantile(ph.ops, 0.5)/r)
	}
	rep.set("calib_ms", median(cal.samples))
	for k, v := range w.layerMetrics() {
		rep.set(k, v)
	}

	lm, err := replayLayers(w.replayConfigs(), p.quick)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	for k, v := range lm {
		rep.set(k, v)
	}

	if err := os.MkdirAll(p.traceDir, 0o755); err != nil {
		return nil, err
	}
	var chrome bytes.Buffer
	if err := telemetry.WriteChromeTrace(&chrome, tr.rec.Records()); err != nil {
		return nil, err
	}
	for file, data := range map[string][]byte{name + ".trace.json": chrome.Bytes(), name + ".cpu.pprof": prof.Bytes()} {
		if err := os.WriteFile(filepath.Join(p.traceDir, file), data, 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// spanMetrics folds the simulated counters the runner stamps on each run
// span, over the first traced pass (so they repeat exactly for a seed),
// and the host time per simulated event over every traced run.
func spanMetrics(tr *tracer) map[string]float64 {
	m := map[string]float64{}
	var events, usAll, eventsAll, acc, l1, lat, bus float64
	runs := 0
	for _, r := range tr.rec.Records() {
		first := r.TraceID == tr.first
		if r.Name == "merge" && r.Proc == benchProc && first {
			m["pool.runs"] += num(r.Attrs["executed"])
			m["pool.cache_hits"] += num(r.Attrs["cache_hits"])
		}
		if r.Name != "run" || r.Attrs["sim.events"] == nil {
			continue
		}
		usAll += float64(r.DurUS)
		eventsAll += num(r.Attrs["sim.events"])
		if !first {
			continue
		}
		runs++
		a := num(r.Attrs["sim.accesses"])
		events += num(r.Attrs["sim.events"])
		acc += a
		l1 += a * num(r.Attrs["gpu.l1_hit_rate"])
		lat += a * num(r.Attrs["mem.avg_latency_cycles"])
		m["gpu.compute_cycles"] += num(r.Attrs["gpu.compute_cycles"])
		m["cache.mshr_full_stalls"] += num(r.Attrs["stall.mshr_full"])
		if r.Attrs["sim.lane_fallback"] != nil {
			m["sim.lane_fallbacks"]++
		}
		for _, k := range []string{"epochs", "promotions", "demotions", "writeback_stalls", "pages"} {
			m["migrate."+k] += num(r.Attrs["migrate."+k])
		}
		var util float64
		var chans int
		for k, v := range r.Attrs {
			if strings.HasPrefix(k, "bw.") && strings.HasSuffix(k, "_util") {
				util += num(v)
				chans++
			}
		}
		if chans > 0 {
			bus += util / float64(chans)
		}
	}
	m["sim.events"] = events
	if eventsAll > 0 {
		m["sim.ns_per_event"] = usAll * 1e3 / eventsAll
	}
	if acc > 0 {
		m["gpu.l1_hit_rate"] = l1 / acc
		m["memsys.avg_latency_cycles"] = lat / acc
	}
	if runs > 0 {
		m["dram.bus_util"] = bus / float64(runs)
	}
	if t := m["pool.runs"] + m["pool.cache_hits"]; t > 0 {
		m["pool.hit_ratio"] = m["pool.cache_hits"] / t
	}
	return m
}

// num reads a numeric span attribute: the program's own spans hold the
// int, uint64 or float64 the runner set, spans shipped back by a worker
// hold float64.
func num(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case uint64:
		return float64(x)
	}
	return 0
}

type runtimeSample struct{ cpu, idle, gc, alloc float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	// The CPU classes are updated at GC; collect so both ends are current.
	runtime.GC()
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
