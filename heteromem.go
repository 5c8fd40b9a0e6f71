// Package heteromem is the public API of hetsim, a simulator and policy
// library reproducing "Page Placement Strategies for GPUs within
// Heterogeneous Memory Systems" (Agarwal, Nellans, Stephenson, O'Connor,
// Keckler — ASPLOS 2015).
//
// The library provides:
//
//   - the paper's page placement policies for bandwidth-asymmetric memory
//     (LOCAL, INTERLEAVE, fixed xC-yB ratios, BW-AWARE, oracle, and
//     profile-driven annotated placement),
//   - a cycle-approximate simulation of the paper's evaluation platform (a
//     Fermi-like GPU over a GDDR5 + DDR4 CC-NUMA memory system),
//   - synthetic reconstructions of the paper's 19 evaluation workloads,
//     plus the profiling toolchain (page CDFs, per-structure hotness,
//     GetAllocation hints), and
//   - runners that regenerate every table and figure of the evaluation.
//
// Quick start:
//
//	res, err := heteromem.Run(heteromem.RunConfig{
//	    Workload: "bfs",
//	    Policy:   heteromem.BWAware,
//	})
//	fmt.Println(res.Perf, res.BOServed)
//
// To regenerate a figure:
//
//	fig, err := heteromem.Figure("fig3", heteromem.Options{})
//	fmt.Print(fig.Table)
package heteromem

import (
	"fmt"
	"io"

	"hetsim/internal/core"
	"hetsim/internal/experiments"
	"hetsim/internal/metrics"
	"hetsim/internal/migrate"
	"hetsim/internal/obs"
	"hetsim/internal/profiler"
	"hetsim/internal/topology"
	"hetsim/internal/trace"
	"hetsim/internal/tune"
	"hetsim/internal/vm"
	"hetsim/internal/workloads"
)

// Core types, re-exported from the implementation packages.
type (
	// RunConfig describes one simulation run (workload, policy, capacity
	// constraint, memory/GPU configuration).
	RunConfig = experiments.RunConfig
	// Result is the outcome of one run.
	Result = experiments.Result
	// Options tunes a figure reproduction (workload subset, shrink,
	// workers, topology preset, migration, probes).
	Options = experiments.Options
	// Fig is one reproduced table or figure.
	Fig = experiments.Figure
	// PolicyKind selects a placement policy.
	PolicyKind = experiments.PolicyKind
	// Dataset parameterizes workload inputs (sizes, skew, seed).
	Dataset = workloads.Dataset
	// Hint is a per-allocation placement annotation.
	Hint = core.Hint
	// SBIT is the System Bandwidth Information Table.
	SBIT = core.SBIT
	// PageProfile holds per-page DRAM access counts.
	PageProfile = profiler.PageProfile
	// StructureStat is a per-data-structure hotness profile entry.
	StructureStat = profiler.StructureStat
	// Table is a renderable result table (text or CSV).
	Table = metrics.Table
	// ProbeConfig configures the in-run flight recorder (internal/obs):
	// sampling interval in simulated cycles, ring capacity, dump path and
	// format. Attach to figure sweeps via Options.Probe.
	ProbeConfig = obs.Config
	// ProbeSnapshot is one recorded time series: column names plus sample
	// rows on the simulated-time grid.
	ProbeSnapshot = obs.Snapshot
	// Probe is a flight recorder instance; attach one to a single run with
	// RunConfig.WithProbe and read it back with Snapshot.
	Probe = obs.Probe
)

// Placement policies.
const (
	Local      = experiments.LocalPolicy
	Interleave = experiments.InterleavePolicy
	BWAware    = experiments.BWAwarePolicy
	Ratio      = experiments.RatioPolicy
	Oracle     = experiments.OraclePolicy
	Annotated  = experiments.HintedPolicy
)

// Placement hints for annotated allocation.
const (
	HintNone = core.HintNone
	HintBO   = core.HintBO
	HintCO   = core.HintCO
	HintBW   = core.HintBW
)

// Run executes one workload under one placement policy on the simulated
// heterogeneous-memory GPU system and returns the measured result.
func Run(rc RunConfig) (Result, error) { return experiments.Run(rc) }

// SweepStats summarizes a parallel sweep: simulations executed, configs
// served from the result cache, worker count, and wall time.
type SweepStats = metrics.SweepStats

// RunAll executes a batch of run configs on a worker pool (workers <= 0
// means one per CPU) against the process-wide result cache, so equivalent
// configs are simulated once. Results land at the index of their config
// and are bit-identical for any worker count; see internal/experiments
// for the determinism guarantee.
func RunAll(cfgs []RunConfig, workers int) ([]Result, SweepStats, error) {
	return experiments.RunAll(cfgs, workers)
}

// Profile runs a workload unconstrained under LOCAL placement and returns
// the result with page-level and structure-level access counts — the
// training pass for oracle and annotated placement.
func Profile(workload string, ds Dataset, shrink int) (Result, error) {
	return experiments.Profile(workload, ds, shrink)
}

// Figure regenerates one of the paper's tables or figures by identifier
// (see FigureIDs).
func Figure(id string, opts Options) (Fig, error) {
	f, ok := experiments.ByID(id)
	if !ok {
		return Fig{}, fmt.Errorf("heteromem: unknown figure %q (have %v)", id, experiments.IDs())
	}
	return f(opts)
}

// FigureIDs lists the reproducible tables and figures in paper order.
func FigureIDs() []string { return experiments.IDs() }

// DescribeFigure returns the one-line description of a figure or table
// identifier ("" for unknown ids), as printed by hmexp -list.
func DescribeFigure(id string) string { return experiments.Describe(id) }

// NewProbe builds a flight recorder from a validated config; pass it to a
// run with RunConfig.WithProbe. The recorder is single-use: one run, then
// read its Snapshot.
func NewProbe(cfg ProbeConfig) (*Probe, error) { return obs.New(cfg) }

// AllFigures regenerates every table and figure.
func AllFigures(opts Options) ([]Fig, error) { return experiments.All(opts) }

// Workloads lists the paper's 19-benchmark evaluation set.
func Workloads() []string { return workloads.Names() }

// AllWorkloads lists every available workload, including extensions.
func AllWorkloads() []string { return workloads.AllNames() }

// TrainDataset is the canonical input set used for profiling.
func TrainDataset() Dataset { return workloads.Train() }

// DatasetVariants are alternative input sets for robustness studies.
func DatasetVariants() []Dataset { return workloads.Variants() }

// AnnotatedHints computes §5.3 placement hints for a workload: profile on
// trainDS, then combine the measured per-structure hotness with evalDS's
// structure sizes and the BO capacity fraction of the Table 1 machine.
func AnnotatedHints(workload string, trainDS, evalDS Dataset, boCapacityFrac float64, shrink int) ([]Hint, error) {
	return experiments.AnnotatedHints(workload, trainDS, evalDS, boCapacityFrac, shrink)
}

// PageCDF computes the Figure 6 curve for a run's page counts.
func PageCDF(res Result) PageProfile { return profiler.FromCounts(res.PageCounts) }

// StructureProfile maps a run's page counts onto its data structures —
// the Figure 7 analysis and the hotness source for annotations.
func StructureProfile(res Result) []StructureStat {
	return profiler.ProfileAllocations(res.PageCounts, res.Allocations, vm.DefaultPageSize)
}

// Table1SBIT returns the paper's simulated system topology (200 GB/s BO +
// 80 GB/s CO behind a 100-cycle hop).
func Table1SBIT() SBIT { return core.Table1SBIT() }

// Topology is a named N-pool heterogeneous memory system (see
// internal/topology and TOPOLOGIES.md): a preset name plus the memory
// configuration it stands for, one zone per pool with its channel count,
// per-channel bandwidth, timing, capacity and interconnect hop. Pass
// MemsysConfig() as RunConfig.Mem to run on it.
type Topology = topology.Topology

// TopologyPreset returns a built-in topology by name; select one for a
// figure reproduction via Options.Topology. The empty name is "k40-ddr4",
// the paper's Table 1 machine.
func TopologyPreset(name string) (Topology, error) { return topology.Preset(name) }

// MigrationConfig tunes the dynamic page-migration engine (the paper's
// §5.5 future work, implemented in internal/migrate): epoch length, page
// budget, lock cycles, classifier policy ("counter" or "ewma"), and the
// asynchronous write-back buffer. Enable it on a run via
// RunConfig.Migration, or on figure reproductions via Options.Migrate.
type MigrationConfig = migrate.Config

// MigrationStats counts migration-engine activity for a run
// (Result.Migration).
type MigrationStats = migrate.Stats

// ComputeHints is the raw GetAllocation hint computation over explicit
// size/hotness annotations (Figure 9).
func ComputeHints(sizes []uint64, hotness []float64, boCapacityBytes uint64, boShare float64) ([]Hint, error) {
	if len(sizes) != len(hotness) {
		return nil, fmt.Errorf("heteromem: %d sizes but %d hotness values", len(sizes), len(hotness))
	}
	infos := make([]core.AllocationInfo, len(sizes))
	for i := range sizes {
		infos[i] = core.AllocationInfo{Size: sizes[i], Hotness: hotness[i]}
	}
	return core.ComputeHints(infos, boCapacityBytes, boShare)
}

// Policy autotuning (internal/tune): a deterministic search over the joint
// placement-policy + migration-spec space for one workload on one
// topology. Importing heteromem also registers the "figtune" figure (the
// oracle-vs-tuned gap study) with FigureIDs.
type (
	// TuneProblem names the tuning target: workload, topology preset,
	// dataset, capacity constraint, fidelity, and sampling seed.
	TuneProblem = tune.Problem
	// TuneParams is one candidate configuration in the search space.
	TuneParams = tune.Params
	// TuneOptions tunes the search itself: strategy, budget, workers,
	// caches, and cluster dispatch.
	TuneOptions = tune.Options
	// TuneReport is the search outcome: the winner, the search trace, and
	// the tuned/default/oracle comparison.
	TuneReport = tune.Report
)

// Search defaults shared by the CLI flags and the serving layer.
const (
	DefaultTuneStrategy = tune.DefaultStrategy
	DefaultTuneBudget   = tune.DefaultBudget
)

// Tune searches the placement-policy space for the problem's best
// configuration. Reports are byte-identical for any worker count, fresh or
// warm caches, and local or cluster dispatch.
func Tune(p TuneProblem, o TuneOptions) (TuneReport, error) { return tune.Run(p, o) }

// TuneStrategies lists the built-in search strategies.
func TuneStrategies() []string { return tune.Strategies() }

// KnownTuneStrategy reports whether name is a built-in search strategy
// ("" selects the default).
func KnownTuneStrategy(name string) bool { return tune.Known(name) }

// Report flattens a Result into a machine-readable summary.
type Report = experiments.Report

// NewReport builds the JSON-ready summary of a run.
func NewReport(r Result) Report { return experiments.NewReport(r) }

// TraceEvent is one recorded memory access.
type TraceEvent = trace.Event

// ReplayConfig shapes how a recorded trace is re-executed.
type ReplayConfig = trace.ReplayConfig

// RecordTrace runs a workload while streaming its post-L1 access trace to
// w, returning the run result and the number of recorded events.
func RecordTrace(rc RunConfig, w io.Writer) (Result, uint64, error) {
	return experiments.RecordTrace(rc, w)
}

// ReadTrace decodes a recorded trace stream.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	return trace.ReadAll(tr)
}

// ReplayTrace re-executes a recorded access stream under a placement
// policy. The replay is assembled like any run, so it honours rc's
// topology and pool capacities (Mem, BOCapacityFrac), Migration,
// EagerPlacement and an attached probe; annotated placement is still
// excepted, as traces carry no allocations.
func ReplayTrace(events []TraceEvent, rc RunConfig, replay ReplayConfig) (Result, error) {
	return experiments.RunTrace(events, rc, replay)
}
