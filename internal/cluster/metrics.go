package cluster

import "fmt"

// Stats is a point-in-time snapshot of the coordinator's aggregate
// counters, for tests and CLI summaries.
type Stats struct {
	Workers        int
	Alive          int
	Dispatches     uint64 // Run calls
	Remote         uint64 // configs served by the fleet
	LocalFallbacks uint64 // configs declined back to local execution
	Retries        uint64
	Failovers      uint64
	Evictions      uint64
	Revivals       uint64
	Heartbeats     uint64
	HeartbeatFails uint64
}

// Stats snapshots the aggregate dispatch and liveness counters.
func (c *Coordinator) Stats() Stats {
	total, alive := c.Workers()
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Workers:        total,
		Alive:          alive,
		Dispatches:     c.dispatches,
		Remote:         c.remoteOK,
		LocalFallbacks: c.localFallbacks,
		Retries:        c.totalRetries,
		Failovers:      c.failovers,
		Evictions:      c.evictions,
		Revivals:       c.revivals,
		Heartbeats:     c.heartbeats,
		HeartbeatFails: c.heartbeatFails,
	}
}

// MetricsMap renders every coordinator counter — fleet-wide aggregates
// plus per-worker jobs/errors/retries/in-flight and latency percentiles —
// as a flat metric map. Keys use Prometheus label syntax for the
// per-worker series; hmserved -cluster plugs it into
// serve.Config.ExtraMetrics, which exports it on the daemon's /metrics.
func (c *Coordinator) MetricsMap() map[string]float64 {
	st := c.Stats()
	m := map[string]float64{
		"cluster_workers":                  float64(st.Workers),
		"cluster_workers_alive":            float64(st.Alive),
		"cluster_dispatch_total":           float64(st.Dispatches),
		"cluster_remote_total":             float64(st.Remote),
		"cluster_local_fallback_total":     float64(st.LocalFallbacks),
		"cluster_retries_total":            float64(st.Retries),
		"cluster_failovers_total":          float64(st.Failovers),
		"cluster_evictions_total":          float64(st.Evictions),
		"cluster_revivals_total":           float64(st.Revivals),
		"cluster_heartbeats_total":         float64(st.Heartbeats),
		"cluster_heartbeat_failures_total": float64(st.HeartbeatFails),
	}
	for _, w := range c.workers {
		l := fmt.Sprintf(`{worker=%q}`, w.url)
		w.mu.Lock()
		up := 0.0
		if w.alive {
			up = 1
		}
		m["cluster_worker_up"+l] = up
		m["cluster_worker_jobs_total"+l] = float64(w.jobs)
		m["cluster_worker_errors_total"+l] = float64(w.errors)
		m["cluster_worker_retries_total"+l] = float64(w.retries)
		m["cluster_worker_inflight"+l] = float64(len(w.sem))
		if n := w.lat.Count(); n > 0 {
			m["cluster_worker_latency_us_count"+l] = float64(n)
			m["cluster_worker_latency_us_mean"+l] = w.lat.Sum() / float64(n)
			m["cluster_worker_latency_us_p50"+l] = float64(w.lat.Percentile(0.50))
			m["cluster_worker_latency_us_p95"+l] = float64(w.lat.Percentile(0.95))
			m["cluster_worker_latency_us_p99"+l] = float64(w.lat.Percentile(0.99))
		}
		w.mu.Unlock()
	}
	return m
}
