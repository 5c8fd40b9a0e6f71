package experiments

import (
	"fmt"
	"strings"

	"hetsim/internal/metrics"
	"hetsim/internal/obs"
	"hetsim/internal/topology"
)

// figDynRows bounds the table to a readable size: each policy arm's series
// is downsampled to at most this many evenly spaced samples.
const figDynRows = 8

// FigDyn is the migration-dynamics figure: the flight recorder (internal/
// obs) watches BW-AWARE plus online migration on the cxl-expansion preset
// under the 10% capacity constraint, counter vs ewma classifier, sampled
// once per migration epoch. Where figmigtopo reports end-of-run aggregates,
// this figure shows the run unfolding — heat classification converging
// (cumulative promotions/demotions flattening), write-back buffer pressure
// (queue depth spikes when demotions outrun the drain), and per-pool
// occupancy moving as pages climb the bandwidth order (the ewma classifier
// holds it between its watermarks). Probed runs are uncacheable by design,
// so the migration arms always execute; the table and headlines are
// deterministic for any worker count (the sampling grid is a function of
// the schedule alone).
// Options.Topology is ignored — the multi-tier chain is the point — and so
// is the Migrate spec's policy= key, since both classifiers are the
// comparison; the rest of the spec applies to each.
func FigDyn(opts Options) (Figure, error) {
	wl := "bfs"
	if len(opts.Workloads) > 0 {
		wl = opts.Workloads[0]
	}
	// This figure manages its own recorders; a caller-supplied probe would
	// double-attach.
	opts.Probe = nil
	opts.ProbeSink = nil
	counterCfg, ewmaCfg, err := opts.classifierArms()
	if err != nil {
		return Figure{}, err
	}

	t, err := topology.Preset("cxl-expansion")
	if err != nil {
		return Figure{}, err
	}
	mem := t.MemsysConfig()
	e := opts.executor()

	base := RunConfig{
		Workload: wl, Dataset: opts.dataset(), Policy: BWAwarePolicy, Mem: mem,
		BOCapacityFrac: constrainedFrac, Shrink: opts.shrink(),
	}
	ctrRC := base
	ctrRC.Migration = &counterCfg
	ewmaRC := base
	ewmaRC.Migration = &ewmaCfg

	// One recorder per migration arm, sampling on the epoch grid so every
	// row aligns with a migration decision point.
	probeCfg := obs.Config{Interval: counterCfg.EpochCycles, MaxSamples: 4096}
	probes := map[string]*obs.Probe{}
	for _, arm := range []string{"counter", "ewma"} {
		if probes[arm], err = obs.New(probeCfg); err != nil {
			return Figure{}, err
		}
	}
	res, err := e.Map([]RunConfig{
		base,
		ctrRC.WithProbe(probes["counter"]),
		ewmaRC.WithProbe(probes["ewma"]),
	})
	if err != nil {
		return Figure{}, err
	}
	bw, ctr, ewma := res[0], res[1], res[2]

	tb := metrics.NewTable(
		fmt.Sprintf("Extension: migration dynamics over time (%s on cxl-expansion at 10%% capacity, sampled every %d cycles)", wl, counterCfg.EpochCycles),
		"policy", "time_cycles", "promotions", "demotions", "wb_depth", "pages_fast", "util_fast")
	head := map[string]float64{
		"counter_vs_bwaware": ctr.Perf / bw.Perf,
		"ewma_vs_bwaware":    ewma.Perf / bw.Perf,
	}
	for _, arm := range []string{"counter", "ewma"} {
		snap := probes[arm].Snapshot()
		if !snap.Final || len(snap.Rows) == 0 {
			return Figure{}, fmt.Errorf("figdyn: %s arm recorded no series", arm)
		}
		promo, demo := colIdx(snap, "mig.promotions"), colIdx(snap, "mig.demotions")
		wbd, stalls := colIdx(snap, "wb.depth"), colIdx(snap, "mig.wb_stalls")
		pagesFast, utilFast := colIdx(snap, "pages."), colIdx(snap, "util.")
		if promo < 0 || demo < 0 || wbd < 0 || pagesFast < 0 || utilFast < 0 || stalls < 0 {
			return Figure{}, fmt.Errorf("figdyn: series missing migration columns: %v", snap.Columns)
		}
		for _, r := range downsample(snap.Rows, figDynRows) {
			tb.AddRow(arm, r[0], r[promo], r[demo], r[wbd], r[pagesFast], r[utilFast])
		}
		last := snap.Rows[len(snap.Rows)-1]
		head["promotions_"+arm] = last[promo]
		head["demotions_"+arm] = last[demo]
		head["wb_stalls_"+arm] = last[stalls]
		head["settle_cycles_"+arm] = settleTime(snap.Rows, promo, demo)
	}

	return Figure{
		ID: "figdyn", Title: "Migration dynamics over time", Table: tb, Headline: head, Sweep: e.Stats(),
		Notes: []string{
			"promotions/demotions are cumulative: the curve flattening is the classifier settling on a placement; settle_cycles marks 90% of final migration activity",
			"wb_depth is the instantaneous write-back queue; sustained depth near the configured bound means demotions arrive faster than the slow pool drains them and further ones block (wb_stalls)",
			"pages_fast/util_fast track the fastest pool (first configured): the ewma classifier holds its occupancy between the low/high watermarks, the counter classifier swaps on epoch heat alone",
			"series were recorded by internal/obs on the migration-epoch grid; rerun with -probe out=... to dump the full resolution this table downsamples",
		},
	}, nil
}

// colIdx finds the first column equal to name, or — when name ends in
// '.' — the first column with that prefix (the first configured pool).
func colIdx(s obs.Snapshot, name string) int {
	for i, c := range s.Columns {
		if c == name || (strings.HasSuffix(name, ".") && strings.HasPrefix(c, name)) {
			return i
		}
	}
	return -1
}

// downsample keeps at most k evenly spaced rows, always including the
// first and last.
func downsample(rows [][]float64, k int) [][]float64 {
	if len(rows) <= k {
		return rows
	}
	out := make([][]float64, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, rows[i*(len(rows)-1)/(k-1)])
	}
	return out
}

// settleTime reports the stamp of the first sample reaching 90% of the
// run's final cumulative migration activity (0 when nothing migrated).
func settleTime(rows [][]float64, promo, demo int) float64 {
	final := rows[len(rows)-1][promo] + rows[len(rows)-1][demo]
	if final <= 0 {
		return 0
	}
	for _, r := range rows {
		if r[promo]+r[demo] >= 0.9*final {
			return r[0]
		}
	}
	return rows[len(rows)-1][0]
}
