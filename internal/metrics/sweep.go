package metrics

import (
	"fmt"
	"time"
)

// SweepStats summarizes a parallel figure sweep: how many simulations
// actually ran, how many configs were served from the result cache, and
// the wall time spent. The experiment executor fills it in and the
// command-line tools print it, so a user can see both the progress a
// figure made and what the cache saved.
type SweepStats struct {
	Runs      int    // simulations executed (locally or on a remote worker)
	CacheHits int    // configs answered from the result cache
	Remote    int    // executed runs offloaded to a worker fleet (subset of Runs)
	Errors    int    // configs that finished with an error
	Workers   int    // maximum worker goroutines used
	Accesses  uint64 // post-L1 accesses simulated by executed runs (cache hits excluded)
	// LaneFallbacks is always 0. It counted runs that asked for parallel
	// event lanes and ran on one; lanes were removed, but the benchmark
	// harness under bench/ still reads the field, so it stays (and stays
	// in the daemon's job JSON) until that harness changes.
	LaneFallbacks int
	// MigratedPages sums the pages moved by the migration engine across
	// executed runs (cache hits excluded, like Accesses).
	MigratedPages uint64
	Wall          time.Duration
}

// Total is the number of configs dispatched (executed + cached).
func (s SweepStats) Total() int { return s.Runs + s.CacheHits }

// Add accumulates another sweep's counters (wall times sum; worker counts
// take the maximum), for multi-stage figures.
func (s *SweepStats) Add(o SweepStats) {
	s.Runs += o.Runs
	s.CacheHits += o.CacheHits
	s.Remote += o.Remote
	s.Errors += o.Errors
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.Accesses += o.Accesses
	s.MigratedPages += o.MigratedPages
	s.Wall += o.Wall
}

// AccessRate reports simulated accesses per second of sweep wall time —
// the service-level throughput gauge exposed on the daemon's /metrics.
func (s SweepStats) AccessRate() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Accesses) / s.Wall.Seconds()
}

// String renders a one-line summary, e.g.
// "24 runs (+8 cached) in 1.21s, 8 workers".
func (s SweepStats) String() string {
	cached := ""
	if s.CacheHits > 0 {
		cached = fmt.Sprintf(" (+%d cached)", s.CacheHits)
	}
	remote := ""
	if s.Remote > 0 {
		remote = fmt.Sprintf(", %d remote", s.Remote)
	}
	errs := ""
	if s.Errors > 0 {
		errs = fmt.Sprintf(", %d errors", s.Errors)
	}
	migrated := ""
	if s.MigratedPages > 0 {
		migrated = fmt.Sprintf(", %d pages migrated", s.MigratedPages)
	}
	return fmt.Sprintf("%d runs%s in %s, %d workers%s%s%s",
		s.Runs, cached, s.Wall.Round(10*time.Millisecond), s.Workers, remote, errs, migrated)
}
