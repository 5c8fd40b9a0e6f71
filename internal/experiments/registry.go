package experiments

import "fmt"

// figure is one row of the figure table: an identifier, the one-line
// description `hmexp -list` shows, the reproduction, and the checks that
// depend on which figure reads the options (nil for none). CheckFigure
// puts the id in front of a check's error, so the error reads on from it.
type figure struct {
	id, desc string
	run      func(Options) (Figure, error)
	check    func(Options) error
}

// figures is the figure table: the built-ins in paper order (the paper's
// tables and figures plus this repo's extension studies), then extensions
// registered at init time by packages layered above experiments —
// internal/tune's figtune is the first. Every surface that renders figures
// (hmexp, hmserved's /v1/figures/{id}, heteromem.Figure) reads it, so a
// registered extension is picked up once its package is linked in.
// Register appends only from init functions (before main starts), so it is
// read-only afterwards and needs no locking.
var figures = []figure{
	{"table1", "simulation-configuration table for the selected topology (paper Table 1)", Table1, nil},
	{"fig1", "motivation: bandwidth ratios of likely future heterogeneous memory systems", Fig1, nil},
	{"fig2a", "bandwidth sensitivity: all-LOCAL performance as GPU-memory bandwidth scales 0.5x-2x", Fig2a, nil},
	{"fig2b", "latency sensitivity: performance as fixed latency is added to every access", Fig2b, nil},
	{"fig3", "placement-ratio sweep: fixed xC-yB splits vs LOCAL/INTERLEAVE/BW-AWARE", Fig3, nil},
	{"fig4", "capacity constraint: BW-AWARE as the fast pool shrinks to 10% of the footprint", Fig4, nil},
	{"fig5", "CPU-memory bandwidth sweep: policies as the slow pool approaches parity", Fig5, nil},
	{"fig6", "page-hotness profiles: DRAM-traffic share of the hottest pages, plus skew", Fig6, nil},
	{"fig7", "page-hotness case studies: bfs, mummergpu, needle access distributions", Fig7, nil},
	{"fig8", "oracle study: oracle vs BW-AWARE placement, unconstrained and at 10% capacity", Fig8, nil},
	{"fig10", "annotated placement: INTERLEAVE/BW-AWARE/ANNOTATED/ORACLE under 10% capacity", Fig10, nil},
	{"fig11", "annotation robustness: profiles trained on one dataset, evaluated on variants", Fig11, nil},
	{"figmig", "online migration vs static placement: how much of the oracle gap it recovers", FigMigration, nil},
	{"figzones", "three-pool BW-AWARE: placement fractions converge to bandwidth shares", FigZones, nil},
	{"figenergy", "energy and energy-delay product of placement policies, normalized to LOCAL", FigEnergy, nil},
	{"figphase", "phase-shifting workload: online migration vs every static placement", FigPhase, nil},
	{"figtlb", "page-size study: 4 kB vs 2 MB placement precision with translation costs", FigTLB, nil},
	{"figcpu", "CPU interference: BW-AWARE under CPU traffic, with a contention-aware SBIT", FigCPU, nil},
	{"figtopo", "BW-AWARE edge vs LOCAL/INTERLEAVE across all topology presets", FigTopology, nil},
	{"figmigtopo", "migration classifiers (counter, ewma) across topology presets at 10% capacity", FigMigTopo, checkClassifiers},
	{"figdyn", "migration dynamics over time: counter vs ewma flight-recorder series on cxl-expansion", FigDyn, checkClassifiers},
}

// checkClassifiers is the check of the figures that run every migration
// classifier side by side: they override MigratePolicy with each in turn,
// so their Migrate spec must be valid under each (see classifierArms).
func checkClassifiers(o Options) error {
	if _, _, err := o.classifierArms(); err != nil {
		return fmt.Errorf("runs both migration classifiers: %w", err)
	}
	return nil
}

func lookup(id string) (figure, bool) {
	for _, f := range figures {
		if f.id == id {
			return f, true
		}
	}
	return figure{}, false
}

// CheckFigure adds to Options.Validate the checks that depend on which
// figure reads the options, so a request the figure would fail on is
// refused before any simulation: hmexp exits 2 and the daemon answers
// 400. Unknown ids pass; callers report them.
func CheckFigure(id string, o Options) error {
	f, ok := lookup(id)
	if !ok || f.check == nil {
		return nil
	}
	if err := f.check(o); err != nil {
		return fmt.Errorf("%s %w", id, err)
	}
	return nil
}

// Register appends a figure reproduction under id with a one-line
// description (shown by `hmexp -list`), making it reachable from ByID,
// IDs, Describe, and All. It is intended for init-time use by packages
// built on top of experiments (which cannot live here without an import
// cycle); an id already in the table panics — a programming error caught
// at process start.
func Register(id, desc string, fn func(Options) (Figure, error)) {
	if _, dup := lookup(id); dup {
		panic(fmt.Sprintf("experiments: Register(%q): id already in the figure table", id))
	}
	figures = append(figures, figure{id: id, desc: desc, run: fn})
}

// All runs every figure and table reproduction in table order.
func All(opts Options) ([]Figure, error) {
	var out []Figure
	for _, f := range figures {
		fig, err := f.run(opts)
		if err != nil {
			return out, err
		}
		out = append(out, fig)
	}
	return out, nil
}

// ByID returns the reproduction function for a figure/table identifier.
func ByID(id string) (func(Options) (Figure, error), bool) {
	f, ok := lookup(id)
	return f.run, ok
}

// Describe returns the one-line description of a figure/table identifier
// ("" for unknown ids).
func Describe(id string) string {
	f, _ := lookup(id)
	return f.desc
}

// IDs lists the reproducible figure/table identifiers in table order:
// built-ins in paper order, then registered extensions.
func IDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}
