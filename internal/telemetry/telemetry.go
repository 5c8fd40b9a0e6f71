// Package telemetry is the execution-tracing layer for the sweep, service,
// and cluster stack: lightweight spans with request-scoped trace IDs that
// propagate from hmexp through the cluster coordinator to hmserved workers
// over an HTTP header, recorded into a per-process Recorder and exported
// three ways — structured log/slog lines carrying trace and span IDs,
// Prometheus-text duration histograms merged into a daemon's /metrics, and
// Chrome trace-event JSON (WriteChromeTrace) loadable in Perfetto as a
// timeline of a whole cluster sweep.
//
// This package traces the *execution* of the system (queue waits, cache
// tiers, dispatches, simulation runs). The *memory-access* traces that are
// a paper artifact — recorded post-L1 access streams — live in
// internal/trace and are unrelated.
//
// Everything is off by default. A Recorder starts disabled; Trace.Start on
// a disabled recorder returns a nil *Span, and every Span method is
// nil-safe, so instrumented code pays one atomic load and zero allocations
// when telemetry is off. The hot simulation loop is never instrumented at
// all: simulator counters (events fired, per-channel bus utilization, MSHR
// high-water marks, stall breakdowns) already exist for other reasons and
// are snapshotted onto the run's span once, after the run completes.
//
// Trace IDs deliberately do not participate in result identity: results
// are keyed and cached by canonical config hashes alone, so sweeps are
// byte-identical with telemetry on or off.
package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hetsim/internal/metrics"
)

// DefaultMaxSpans bounds a Recorder's in-memory span buffer; spans beyond
// it are counted as dropped (histograms still observe them).
const DefaultMaxSpans = 1 << 17

// Default is the process-wide recorder used by the CLI tools. Daemons
// construct their own so concurrent servers in one process (tests, the
// coordinator smoke) keep separate span buffers.
var Default = NewRecorder()

// NewTraceID returns a fresh 16-hex-digit random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed ID
		// here degrades tracing, not correctness.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// SpanRecord is the exported form of a finished span: what the Recorder
// buffers, what workers ship back to tracing clients inside cluster-run
// responses, and what the Chrome exporter renders. Attrs survive a JSON
// round trip (numbers come back as float64), which is all the exporters
// need.
type SpanRecord struct {
	TraceID  string         `json:"trace"`
	SpanID   uint64         `json:"span"`
	ParentID uint64         `json:"parent,omitempty"`
	Name     string         `json:"name"`
	Proc     string         `json:"proc,omitempty"` // emitting process ("hmexp", "hmserved :8080")
	Lane     string         `json:"lane,omitempty"` // timeline row within the process
	Start    time.Time      `json:"start"`
	DurUS    uint64         `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// Recorder is a per-process (or per-daemon) span sink: a bounded span
// buffer, per-span-name duration histograms for /metrics, and an optional
// slog logger that receives one structured line per finished span. All
// methods are safe for concurrent use. The zero value is not usable; call
// NewRecorder.
type Recorder struct {
	enabled    atomic.Bool
	nextSpanID atomic.Uint64

	mu       sync.Mutex
	proc     string
	logger   *slog.Logger
	spans    []SpanRecord
	dropped  uint64
	maxSpans int
	hists    map[string]*metrics.Histogram
}

// NewRecorder returns a disabled recorder.
func NewRecorder() *Recorder {
	return &Recorder{maxSpans: DefaultMaxSpans, hists: map[string]*metrics.Histogram{}, proc: "hetsim"}
}

// Enabled reports whether spans are being recorded.
func (r *Recorder) Enabled() bool { return r.enabled.Load() }

// SetEnabled turns recording on or off. Request-scoped traces created with
// RequestTrace keep collecting their own spans either way.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// SetProc names the emitting process; the Chrome exporter groups lanes
// under it (e.g. "hmexp", "hmserved 127.0.0.1:18081").
func (r *Recorder) SetProc(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.proc = name
}

// SetLogger routes one structured line per finished span — with trace,
// span, and parent IDs — to l. nil disables span logging.
func (r *Recorder) SetLogger(l *slog.Logger) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.logger = l
}

// SetMaxSpans caps the span buffer (<= 0 restores the default).
func (r *Recorder) SetMaxSpans(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 {
		n = DefaultMaxSpans
	}
	r.maxSpans = n
}

func (r *Recorder) procName() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.proc
}

// observe buffers one finished span, feeds its duration histogram, and
// logs it if a logger is set.
func (r *Recorder) observe(rec SpanRecord) {
	r.mu.Lock()
	if len(r.spans) < r.maxSpans {
		r.spans = append(r.spans, rec)
	} else {
		r.dropped++
	}
	h := r.hists[rec.Name]
	if h == nil {
		h = &metrics.Histogram{}
		r.hists[rec.Name] = h
	}
	h.Observe(rec.DurUS)
	logger := r.logger
	r.mu.Unlock()
	if logger != nil {
		logger.Info("span",
			"trace", rec.TraceID, "span", rec.SpanID, "parent", rec.ParentID,
			"name", rec.Name, "lane", rec.Lane, "dur_us", rec.DurUS)
	}
}

// Import merges externally produced span records (e.g. shipped back by a
// worker inside a cluster-run response) into the buffer, so the Chrome
// export renders one cross-process timeline.
func (r *Recorder) Import(recs []SpanRecord) {
	if len(recs) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range recs {
		if len(r.spans) < r.maxSpans {
			r.spans = append(r.spans, rec)
		} else {
			r.dropped++
		}
	}
}

// Records returns a copy of the buffered spans.
func (r *Recorder) Records() []SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, len(r.spans))
	copy(out, r.spans)
	return out
}

// SpanCount reports how many spans are buffered.
func (r *Recorder) SpanCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Dropped reports spans discarded because the buffer was full.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// MetricsMap renders the recorder's counters and per-span-name duration
// histograms as a flat metric map in Prometheus histogram exposition shape
// (cumulative _bucket{span=...,le=...} series plus _count and _sum), ready
// to merge into a daemon's existing /metrics via metrics.WriteText.
func (r *Recorder) MetricsMap() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := map[string]float64{
		"telemetry_enabled":             b2f(r.enabled.Load()),
		"telemetry_spans_buffered":      float64(len(r.spans)),
		"telemetry_spans_dropped_total": float64(r.dropped),
	}
	const base = "telemetry_span_duration_us"
	for name, h := range r.hists {
		for _, b := range h.Cumulative() {
			m[fmt.Sprintf(`%s_bucket{span=%q,le=%q}`, base, name, strconv.FormatUint(b.UpperBound, 10))] = float64(b.Count)
		}
		m[fmt.Sprintf(`%s_bucket{span=%q,le="+Inf"}`, base, name)] = float64(h.Count())
		m[fmt.Sprintf(`%s_count{span=%q}`, base, name)] = float64(h.Count())
		m[fmt.Sprintf(`%s_sum{span=%q}`, base, name)] = h.Sum()
	}
	return m
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Trace groups the spans of one logical request (a whole hmexp invocation,
// one daemon job, one cluster dispatch) under a shared trace ID.
type Trace struct {
	rec     *Recorder
	id      string
	collect bool

	mu    sync.Mutex
	local []SpanRecord
}

// Trace returns a trace recording into r when r is enabled. id == ""
// generates a fresh trace ID.
func (r *Recorder) Trace(id string) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	return &Trace{rec: r, id: id}
}

// RequestTrace is Trace with request-scoped collection: the trace
// additionally keeps its own span list (Records), and it is active even
// when the recorder is disabled. Servers use it for requests that arrive
// with a propagated trace header, so a tracing client gets its spans back
// regardless of the daemon's own telemetry setting.
func (r *Recorder) RequestTrace(id string) *Trace {
	t := r.Trace(id)
	t.collect = true
	return t
}

// ID reports the trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Collecting reports whether the trace keeps a request-scoped span list.
func (t *Trace) Collecting() bool { return t != nil && t.collect }

func (t *Trace) active() bool {
	return t != nil && (t.collect || t.rec.Enabled())
}

// Start begins a span under parent (nil for a root span). It returns nil —
// and therefore a no-op span — when the trace is nil or inactive.
func (t *Trace) Start(parent *Span, name string) *Span {
	if !t.active() {
		return nil
	}
	s := &Span{t: t, id: t.rec.nextSpanID.Add(1), name: name, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
		s.lane = parent.Lane()
	}
	return s
}

// Import merges external span records into this trace's collection and —
// when the recorder is enabled — into the recorder.
func (t *Trace) Import(recs []SpanRecord) {
	if t == nil || len(recs) == 0 {
		return
	}
	if t.collect {
		t.mu.Lock()
		t.local = append(t.local, recs...)
		t.mu.Unlock()
	}
	if t.rec.Enabled() {
		t.rec.Import(recs)
	}
}

// Records returns a copy of the spans collected by this trace (empty
// unless the trace was created with RequestTrace).
func (t *Trace) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.local))
	copy(out, t.local)
	return out
}

// record files one finished span.
func (t *Trace) record(rec SpanRecord) {
	if t.collect {
		t.mu.Lock()
		t.local = append(t.local, rec)
		t.mu.Unlock()
	}
	if t.rec.Enabled() {
		t.rec.observe(rec)
	}
}

// Span is one timed region of work. A nil *Span is a valid no-op span:
// every method checks the receiver, so instrumentation sites never branch
// on whether telemetry is enabled.
type Span struct {
	t      *Trace
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu    sync.Mutex
	lane  string
	attrs map[string]any
	ended bool
}

// Child starts a new span under s (nil-safe: a nil parent yields nil).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.Start(s, name)
}

// TraceID reports the owning trace's ID ("" for a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.t.id
}

// SpanID reports the span's process-local ID (0 for a nil span).
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Lane reports the span's timeline row.
func (s *Span) Lane() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lane
}

// SetLane assigns the span to a named timeline row (e.g. one per pool
// worker goroutine), so the Perfetto view shows real parallelism.
func (s *Span) SetLane(lane string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.lane = lane
	s.mu.Unlock()
}

// SetAttr attaches one key/value attribute. Values should be strings,
// bools, or numbers (anything else is rendered via fmt).
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	switch val.(type) {
	case string, bool, float64, float32, int, int32, int64, uint, uint32, uint64:
	default:
		val = fmt.Sprint(val)
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 8)
	}
	s.attrs[key] = val
	s.mu.Unlock()
}

// Import forwards external span records to the span's trace (nil-safe).
func (s *Span) Import(recs []SpanRecord) {
	if s == nil {
		return
	}
	s.t.Import(recs)
}

// End finishes the span and files its record. Idempotent; safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		TraceID:  s.t.id,
		SpanID:   s.id,
		ParentID: s.parent,
		Name:     s.name,
		Proc:     s.t.rec.procName(),
		Lane:     s.lane,
		Start:    s.start,
		DurUS:    uint64(time.Since(s.start).Microseconds()),
		Attrs:    s.attrs,
	}
	s.mu.Unlock()
	s.t.record(rec)
}
