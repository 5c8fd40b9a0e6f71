package tune

import (
	"hetsim/internal/experiments"
	"hetsim/internal/metrics"
)

func init() {
	experiments.Register("figtune",
		"policy autotuning: successive-halving search vs default and oracle per topology",
		FigTune)
}

// figTuneBudget bounds the per-problem search cost: with three halving
// rungs this evaluates ~12 of the 36-candidate space per (topology,
// workload) pair, most of it at coarse fidelity.
const figTuneBudget = 12

// FigTune is the autotuning study: for each topology preset, run the
// successive-halving search per workload and compare the tuned
// configuration against the default (BW-AWARE, no migration) and the
// static oracle — quantifying how much of each machine's oracle gap a
// small search budget recovers. Options.Topology is ignored (all presets
// are swept by construction); Options.Workloads defaults to a two-workload
// subset to bound cost.
func FigTune(opts experiments.Options) (experiments.Figure, error) {
	wls := opts.Workloads
	if len(wls) == 0 {
		wls = []string{"bfs", "xsbench"}
	}
	shrink := opts.Shrink
	if shrink < 1 {
		shrink = 1
	}
	topos := []string{"k40-ddr4", "gh200", "cxl-expansion"}

	tb := metrics.NewTable("Extension: autotuned placement vs default and oracle per topology (perf normalized to default)",
		"topology", "workload", "winner", "default", "tuned", "oracle", "gap recovered")
	head := map[string]float64{}
	var sweep metrics.SweepStats
	var notes []string

	for _, name := range topos {
		var tuned, oracle, gaps []float64
		for _, wl := range wls {
			rep, err := Run(Problem{
				Workload: wl, Topology: name, Dataset: opts.Dataset.Name, Shrink: shrink,
			}, Options{
				Strategy: "halving", Budget: figTuneBudget,
				Workers: opts.Workers,
				Cache:   opts.Cache, Remote: opts.Remote, Span: opts.Span,
			})
			if err != nil {
				return experiments.Figure{}, err
			}
			tb.AddRow(name, wl, rep.Winner, 1.0,
				ratio(rep.TunedPerf, rep.DefaultPerf), ratio(rep.OraclePerf, rep.DefaultPerf),
				rep.GapRecovered)
			tuned = append(tuned, ratio(rep.TunedPerf, rep.DefaultPerf))
			oracle = append(oracle, ratio(rep.OraclePerf, rep.DefaultPerf))
			gaps = append(gaps, rep.GapRecovered)
			sweep.Add(rep.Sweep)
		}
		head["tuned_vs_default_"+name] = metrics.Geomean(tuned)
		head["oracle_vs_default_"+name] = metrics.Geomean(oracle)
		head["gap_recovered_"+name] = mean(gaps)
	}
	notes = append(notes,
		"each (topology, workload) pair runs a budget-12 successive-halving search over the 36-candidate policy x migration space",
		"tuned never falls below default: the search floors its winner at BW-AWARE with migration off",
		"gap recovered = (tuned - default) / (oracle - default), clamped to [0, 1]; 1 when the oracle has no edge",
	)
	return experiments.Figure{
		ID: "figtune", Title: "Autotuned placement across topologies",
		Table: tb, Headline: head, Notes: notes, Sweep: sweep,
	}, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
