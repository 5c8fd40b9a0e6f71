// Command hmsim runs one workload under one page placement policy on the
// simulated heterogeneous-memory GPU system and prints the measured
// performance and traffic breakdown.
//
// Examples:
//
//	hmsim -workload bfs -policy bw-aware
//	hmsim -workload xsbench -policy ratio -ratio 30 -capacity 0.5
//	hmsim -workload needle -policy oracle -capacity 0.1
//	hmsim -workload bfs -trace bfs.trc          # record the access stream
//	hmsim -replay bfs.trc -policy bw-aware      # replay it under a policy
//	hmsim -workload bfs -topology gh200         # simulate on a GH200-class topology
//	hmsim -workload bfs -migrate on -probe on   # one-line flight-recorder summary
//	hmsim -probe interval=5000,out=series.csv -workload bfs -migrate on
//	hmsim -list
//
// -probe attaches an in-run flight recorder (internal/obs) that samples
// per-pool bandwidth utilization, occupancy, migration activity, and queue
// depths on a fixed simulated-time grid. The series is dumped to the
// spec's out= path (format from the extension, or format=), or summarized
// on one line without it; the printed result is identical with the probe
// on or off.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"hetsim"
	"hetsim/cmd/internal/cli"
	"hetsim/internal/experiments"
	"hetsim/internal/migrate"
	"hetsim/internal/prof"
	"hetsim/internal/trace"
	"hetsim/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "bfs", "workload name (-list to enumerate)")
		policy   = flag.String("policy", "bw-aware", "local | interleave | bw-aware | ratio | oracle | annotated")
		ratio    = flag.Int("ratio", 30, "percent of pages placed in CO memory (ratio policy)")
		capacity = flag.Float64("capacity", 0, "BO capacity as a fraction of the footprint (0 = unconstrained)")
		dataset  = flag.String("dataset", "train", "input dataset: train | small | large | shifted")
		eager    = flag.Bool("eager", false, "place pages at Malloc time instead of first touch")
		seed     = flag.Int64("seed", 42, "placement RNG seed")
		tracePth = flag.String("trace", "", "record the post-L1 access stream to this file")
		replay   = flag.String("replay", "", "replay a recorded trace instead of a workload")
		asJSON   = flag.Bool("json", false, "emit the result as JSON")
		list     = flag.Bool("list", false, "list workloads and exit")
		run      = cli.Register(flag.CommandLine, cli.Shrink|cli.Topology|cli.Migrate|cli.Probe|cli.Profile)
	)
	flag.Parse()
	opts, probeErr := run.Options()
	cli.Check("hmsim", probeErr, opts.Validate(), validateFlags(*policy, *dataset, *replay))
	migCfg, _ := migrate.ParseSpec(opts.Migrate) // validated above
	top, _ := heteromem.TopologyPreset(opts.Topology)
	mem := top.MemsysConfig()
	stopProf, err := prof.Start(run.CPUProfile, run.MemProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *list {
		fmt.Println("paper evaluation set (19):")
		for _, n := range heteromem.Workloads() {
			fmt.Println("  ", describeWorkload(n))
		}
		fmt.Println("extended:")
		for _, n := range heteromem.AllWorkloads() {
			if !contains(heteromem.Workloads(), n) {
				fmt.Println("  ", describeWorkload(n))
			}
		}
		return
	}

	ds, err := workloads.DatasetByName(*dataset)
	if err != nil {
		fatal(err)
	}
	rc := heteromem.RunConfig{
		Workload:       *workload,
		Dataset:        ds,
		PercentCO:      *ratio,
		BOCapacityFrac: *capacity,
		Mem:            mem,
		Shrink:         opts.Shrink,
		EagerPlacement: *eager,
		Seed:           *seed,
		Migration:      migCfg,
	}
	rc.Policy, err = policyByName(*policy)
	if err != nil {
		fatal(err)
	}
	var events []trace.Event
	if *replay != "" {
		if events, err = readTrace(*replay); err != nil {
			fatal(err)
		}
	}
	// All workload simulations (the run itself plus any oracle/annotated
	// training pass) dispatch through one sweep executor, so repeated
	// profiles hit the result cache and the stats line below covers
	// everything. Replays are never cached.
	ex := experiments.NewExecutor(0)
	switch rc.Policy {
	case heteromem.Oracle:
		// The oracle's first pass profiles the stream being placed: the
		// workload, or for a replay the trace itself.
		var pr heteromem.Result
		if *replay != "" {
			pr, err = experiments.RunTrace(events, heteromem.RunConfig{Policy: heteromem.Local, Mem: mem}, replayShape)
		} else {
			pr, err = ex.ProfileOn(*workload, ds, opts.Shrink, mem)
		}
		if err != nil {
			fatal(err)
		}
		rc.ProfileCounts = pr.PageCounts
	case heteromem.Annotated:
		hints, err := ex.AnnotatedHintsOn(*workload, heteromem.TrainDataset(), ds, capOrDefault(*capacity), opts.Shrink, mem)
		if err != nil {
			fatal(err)
		}
		rc.Hints = hints
	}

	var probe *heteromem.Probe
	if opts.Probe != nil {
		if probe, err = heteromem.NewProbe(*opts.Probe); err != nil {
			fatal(err)
		}
		rc = rc.WithProbe(probe)
	}

	var res heteromem.Result
	switch {
	case *replay != "":
		res, err = experiments.RunTrace(events, rc, replayShape)
	case *tracePth != "":
		res, err = recordTrace(*tracePth, rc)
	default:
		res, err = ex.Run(rc)
	}
	if err != nil {
		fatal(err)
	}
	if probe != nil {
		if err := dumpProbe(probe, *opts.Probe); err != nil {
			fatal(err)
		}
	}
	if *asJSON {
		if err := experiments.NewReport(res).WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("workload           %s (dataset %s)\n", res.Workload, ds.Name)
	fmt.Printf("policy             %s\n", res.Policy)
	fmt.Printf("footprint          %.1f MB\n", float64(res.Footprint)/(1<<20))
	fmt.Printf("runtime            %d cycles\n", res.Cycles)
	fmt.Printf("performance        %.1f accesses/kcycle\n", res.Perf)
	fmt.Printf("post-L1 accesses   %d\n", res.Accesses)
	fmt.Printf("BO service share   %.1f%%\n", res.BOServed*100)
	fmt.Printf("avg mem latency    %.0f cycles (p50<=%d p95<=%d p99<=%d)\n",
		res.Mem.AvgLatency(), res.Mem.Latency.Percentile(0.50),
		res.Mem.Latency.Percentile(0.95), res.Mem.Latency.Percentile(0.99))
	fmt.Printf("L1 hit rate        %.1f%%\n", res.GPUStats.L1HitRate()*100)
	pools := make([]string, len(mem.Zones))
	for i, z := range mem.Zones {
		pools[i] = fmt.Sprintf("%s %d", z.Name, res.Place.PagesPerZone[z.Zone])
	}
	fmt.Printf("pages per pool     %s (fallbacks %d)\n",
		strings.Join(pools, " / "), res.Place.Fallbacks)
	if migCfg != nil {
		m := res.Migration
		fmt.Printf("migration          %d epochs: %d promoted, %d demoted, %d skipped, %d pages moved\n",
			m.Epochs, m.Promotions, m.Demotions, m.Skipped, res.Mem.MigratedPages)
		fmt.Printf("write-back         %d async, %d stalls, %d accesses while draining\n",
			m.AsyncWriteBacks, m.WriteBackStalls, res.Mem.WriteBackAccesses)
	}
	if st := ex.Stats(); st.Total() > 0 {
		fmt.Printf("sweep              %s\n", st)
	}
}

// validateFlags checks hmsim's own flags; cli.Check reports its errors
// together with the shared run options' before exiting 2. Run-time
// failures (missing files, unknown workloads) still exit 1.
func validateFlags(policy, dataset, replay string) error {
	var errs []error
	if pk, err := policyByName(policy); err != nil {
		errs = append(errs, err)
	} else if pk == heteromem.Annotated && replay != "" {
		errs = append(errs, fmt.Errorf("-policy annotated needs allocations to hint; a -replay trace has none"))
	}
	if _, err := workloads.DatasetByName(dataset); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// dumpProbe exports a completed run's recorded series to the spec's out=
// path (in its effective format) or, without one, as a one-line summary.
// Notes go to stderr so stdout carries exactly the run report and -json
// stays parseable with a probe attached.
func dumpProbe(p *heteromem.Probe, cfg heteromem.ProbeConfig) error {
	snap := p.Snapshot()
	if cfg.Out == "" {
		fmt.Fprintf(os.Stderr, "hmsim: probe: %s\n", snap.Summary())
		return nil
	}
	f, err := os.Create(cfg.Out)
	if err != nil {
		return err
	}
	if err := snap.Write(f, cfg.EffectiveFormat()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hmsim: probe: wrote %s (%s)\n", cfg.Out, snap.Summary())
	return nil
}

func recordTrace(path string, rc heteromem.RunConfig) (heteromem.Result, error) {
	f, err := os.Create(path)
	if err != nil {
		return heteromem.Result{}, err
	}
	res, n, err := experiments.RecordTrace(rc, f)
	if err != nil {
		f.Close()
		return heteromem.Result{}, err
	}
	if err := f.Close(); err != nil {
		return heteromem.Result{}, err
	}
	fmt.Printf("recorded %d events to %s\n", n, path)
	return res, nil
}

// replayShape is how -replay re-executes a trace, in the run and in the
// oracle's profiling pass alike, so the profile's page counts describe the
// stream being placed.
var replayShape = trace.ReplayConfig{Warps: 256, AccessesPerPhase: 8, MLP: 8}

func readTrace(path string) ([]trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := heteromem.ReadTrace(f)
	if err != nil {
		return nil, err
	}
	fmt.Printf("replaying %d events from %s\n", len(events), path)
	return events, nil
}

func capOrDefault(c float64) float64 {
	if c <= 0 {
		return 1e9
	}
	return c
}

func policyByName(name string) (heteromem.PolicyKind, error) {
	switch strings.ToLower(name) {
	case "local":
		return heteromem.Local, nil
	case "interleave":
		return heteromem.Interleave, nil
	case "bw-aware", "bwaware", "bw":
		return heteromem.BWAware, nil
	case "ratio":
		return heteromem.Ratio, nil
	case "oracle":
		return heteromem.Oracle, nil
	case "annotated", "hinted":
		return heteromem.Annotated, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (have local interleave bw-aware ratio oracle annotated)", name)
	}
}

func describeWorkload(name string) string {
	spec, err := workloads.Build(name, workloads.Train())
	if err != nil {
		return name
	}
	return spec.Describe()
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func fatal(err error) {
	prof.StopAll() // os.Exit bypasses defers; flush profiles explicitly
	fmt.Fprintln(os.Stderr, "hmsim:", err)
	os.Exit(1)
}
