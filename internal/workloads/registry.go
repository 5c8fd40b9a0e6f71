package workloads

import (
	"fmt"
	"sort"
)

// Builder constructs a workload spec for a dataset.
type Builder func(Dataset) Spec

var registry = map[string]Builder{
	// Rodinia
	"bfs":        BFS,
	"needle":     Needle,
	"mummergpu":  MummerGPU,
	"backprop":   Backprop,
	"hotspot":    Hotspot,
	"kmeans":     KMeans,
	"pathfinder": Pathfinder,
	"srad":       SRAD,
	"lud":        LUD,
	"gaussian":   Gaussian,
	// Parboil
	"sgemm":   SGEMM,
	"spmv":    SpMV,
	"stencil": Stencil,
	"histo":   Histo,
	"lbm":     LBM,
	"cutcp":   CutCP,
	"mriq":    MRIQ,
	// HPC proxies
	"xsbench": XSBench,
	"minife":  MiniFE,
	"comd":    CoMD,
	"nbody":   NBody,
	"phased":  Phased,
}

// defaultSet is the paper's 19-benchmark evaluation set: 17 memory-
// sensitive workloads plus comd (memory-insensitive control) and sgemm
// (latency-sensitive control). gaussian and nbody are registered but kept
// out, as extended workloads.
var defaultSet = []string{
	"backprop", "bfs", "comd", "cutcp", "histo", "hotspot", "kmeans",
	"lbm", "lud", "minife", "mriq", "mummergpu", "needle", "pathfinder",
	"sgemm", "spmv", "srad", "stencil", "xsbench",
}

// Names returns the default 19-workload evaluation set, sorted.
func Names() []string {
	return append([]string(nil), defaultSet...)
}

// AllNames returns every registered workload, sorted.
func AllNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Known reports whether name is a registered workload, without building
// it.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// Build constructs the named workload for the dataset.
func Build(name string, ds Dataset) (Spec, error) {
	b, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("workloads: unknown workload %q (have %v)", name, AllNames())
	}
	s := b(ds)
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// MustBuild is Build for static names; it panics on error.
func MustBuild(name string, ds Dataset) Spec {
	s, err := Build(name, ds)
	if err != nil {
		panic(err)
	}
	return s
}
