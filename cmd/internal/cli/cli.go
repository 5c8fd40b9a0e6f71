// Package cli declares once the run-option flags that two or more of
// hetsim's binaries share — -shrink, -workers, -topology, -migrate,
// -migrate-policy, -probe, -cpuprofile and -memprofile — and
// reports every error in them, together with each binary's own, before
// exiting 2. The values are checked by experiments.Options.Validate, the
// same check the daemon applies to a figure request's query.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hetsim/internal/experiments"
	"hetsim/internal/obs"
	"hetsim/internal/topology"
)

// Set selects the shared flags a binary declares.
type Set uint

const (
	Shrink   Set = 1 << iota // -shrink
	Workers                  // -workers
	Topology                 // -topology
	Migrate                  // -migrate and -migrate-policy
	Probe                    // -probe
	Profile                  // -cpuprofile and -memprofile
)

// Flags holds the shared flags' values. A flag a binary does not declare
// keeps its default.
type Flags struct {
	Shrink, Workers                         int
	Topology, Migrate, MigratePolicy, Probe string
	CPUProfile, MemProfile                  string
}

// Register declares the flags in set on fs.
func Register(fs *flag.FlagSet, set Set) *Flags {
	f := &Flags{Shrink: 1}
	if set&Shrink != 0 {
		fs.IntVar(&f.Shrink, "shrink", 1, "divide simulated work by this factor for quick runs (1 = full fidelity)")
	}
	if set&Workers != 0 {
		fs.IntVar(&f.Workers, "workers", 0, "concurrent simulations per figure or job (0 = all CPUs)")
	}
	if set&Topology != 0 {
		fs.StringVar(&f.Topology, "topology", "", "memory-topology preset: "+strings.Join(topology.Names(), " | ")+
			" (empty = k40-ddr4, the paper's Table 1 system; hmserved: the default of figure requests)")
	}
	if set&Migrate != 0 {
		fs.StringVar(&f.Migrate, "migrate", "", "dynamic page migration: off | on | key=value,... (epoch, pages, lock, minheat, hyst, cooldown, policy, alpha, high, low, wb); hmserved: the default of figure requests")
		fs.StringVar(&f.MigratePolicy, "migrate-policy", "", "migration classifier: counter | ewma (overrides the -migrate spec)")
	}
	if set&Probe != 0 {
		fs.StringVar(&f.Probe, "probe", "", "attach a flight recorder to every simulation: off | on | interval=N,samples=N,out=PATH,format=json|csv")
	}
	if set&Profile != 0 {
		fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	}
	return f
}

// Options returns the run options the flags select. The error reports a
// -probe spec that does not parse; Options.Validate checks everything
// else.
func (f *Flags) Options() (experiments.Options, error) {
	probe, err := obs.ParseSpec(f.Probe)
	if err != nil {
		err = fmt.Errorf("-probe: %w", err)
	}
	return experiments.Options{
		Shrink: f.Shrink, Workers: f.Workers, Topology: f.Topology,
		Migrate: f.Migrate, MigratePolicy: f.MigratePolicy, Probe: probe,
	}, err
}

// Check prints every error, one per line and prefixed with the program
// name, and exits 2 if there is any. A joined error (errors.Join, as
// Options.Validate returns) prints each of its errors; nil errors are
// skipped.
func Check(prog string, errs ...error) {
	all := Errors(errs...)
	for _, err := range all {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	}
	if len(all) > 0 {
		os.Exit(2)
	}
}

// Errors flattens errs into the list Check prints: joined errors are
// expanded and nil errors dropped.
func Errors(errs ...error) []error {
	var out []error
	for _, err := range errs {
		if j, ok := err.(interface{ Unwrap() []error }); ok {
			out = append(out, Errors(j.Unwrap()...)...)
		} else if err != nil {
			out = append(out, err)
		}
	}
	return out
}
