package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"time"

	"hetsim/internal/metrics"
)

// hashString is the content hash used for idempotency keys.
func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// snapshot is a consistent point-in-time view of every daemon counter,
// backing both /metrics (Prometheus text) and /debug/vars (expvar-style
// JSON).
type snapshot struct {
	counters map[string]float64
	states   map[JobState]int
}

func (s *Server) snapshot() snapshot {
	s.mu.Lock()
	states := map[JobState]int{
		JobQueued: 0, JobRunning: 0, JobDone: 0, JobFailed: 0, JobCanceled: 0,
	}
	for _, j := range s.jobs {
		states[j.State]++
	}
	sweep := s.sweepTotal
	c := map[string]float64{
		"jobs_submitted_total": float64(s.jobsSubmitted),
		"jobs_deduped_total":   float64(s.jobsDeduped),
		"jobs_probed_total":    float64(s.jobsProbed),
		"jobs_inflight":        float64(s.inflight),
		"queue_depth":          float64(len(s.queue)),
		"queue_capacity":       float64(cap(s.queue)),
		"http_requests_total":  float64(s.httpRequests),
		"draining":             0,

		"sim_runs_total":       float64(sweep.Runs),
		"sim_cache_hits_total": float64(sweep.CacheHits),
		"sim_remote_total":     float64(sweep.Remote),
		"sim_errors_total":     float64(sweep.Errors),
		"sim_accesses_total":   float64(sweep.Accesses),
		"sim_wall_seconds":     sweep.Wall.Seconds(),
		"sim_accesses_per_sec": sweep.AccessRate(),

		"sim_migrated_pages_total": float64(sweep.MigratedPages),

		"tune_jobs_total":  float64(s.tuneRuns),
		"tune_evals_total": float64(s.tuneEvals),

		"cache_mem_entries": float64(s.cache.Len()),
	}
	if s.draining {
		c["draining"] = 1
	}
	s.mu.Unlock()

	if s.disk != nil {
		ds := s.disk.Stats()
		c["cache_disk_entries"] = float64(ds.Entries)
		c["cache_disk_bytes"] = float64(ds.Bytes)
		c["cache_disk_hits_total"] = float64(ds.Hits)
		c["cache_disk_misses_total"] = float64(ds.Misses)
		c["cache_disk_puts_total"] = float64(ds.Puts)
		c["cache_disk_evictions_total"] = float64(ds.Evictions)
		c["cache_disk_load_errors_total"] = float64(ds.LoadErrors)
	}
	if s.cfg.ExtraMetrics != nil {
		for name, v := range s.cfg.ExtraMetrics() {
			c[name] = v
		}
	}
	// Telemetry counters and per-span duration histograms (Prometheus
	// histogram series) ride the same exposition path.
	for name, v := range s.rec.MetricsMap() {
		c[name] = v
	}
	return snapshot{counters: c, states: states}
}

// handleMetrics renders the counters in Prometheus text exposition format
// under the hmserved_ prefix.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	var b strings.Builder
	b.WriteString("hmserved_up 1\n")
	metrics.WriteText(&b, "hmserved_", snap.counters)
	for _, st := range []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled} {
		fmt.Fprintf(&b, "hmserved_jobs{state=%q} %d\n", st, snap.states[st])
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

// handleVars renders the same counters as an expvar-style JSON document.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	vars := make(map[string]any, len(snap.counters)+1)
	for name, v := range snap.counters {
		vars[name] = v
	}
	jobs := make(map[string]int, len(snap.states))
	for st, n := range snap.states {
		jobs[string(st)] = n
	}
	vars["jobs_by_state"] = jobs
	vars["build"] = Build()
	vars["uptime_seconds"] = time.Since(s.start).Seconds()
	writeJSON(w, http.StatusOK, vars)
}
