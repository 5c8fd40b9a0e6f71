package experiments

import "fmt"

// Figure reproductions live in two tiers: the built-ins below (the paper's
// tables and figures plus this repo's extension studies), and extensions
// registered at init time by packages layered above experiments —
// internal/tune's figtune is the first. ByID, IDs, and All consult both,
// so every surface that renders figures (hmexp, hmserved's
// /v1/figures/{id}, heteromem.Figure) picks registered extensions up
// automatically once their package is linked in.

var builtinOrder = []string{
	"table1", "fig1", "fig2a", "fig2b", "fig3", "fig4", "fig5", "fig6",
	"fig7", "fig8", "fig10", "fig11", "figmig", "figzones", "figenergy",
	"figphase", "figtlb", "figcpu", "figtopo", "figmigtopo", "figdyn",
}

func builtinFigs() map[string]func(Options) (Figure, error) {
	return map[string]func(Options) (Figure, error){
		"table1":     Table1,
		"fig1":       Fig1,
		"fig2a":      Fig2a,
		"fig2b":      Fig2b,
		"fig3":       Fig3,
		"fig4":       Fig4,
		"fig5":       Fig5,
		"fig6":       Fig6,
		"fig7":       Fig7,
		"fig8":       Fig8,
		"fig10":      Fig10,
		"fig11":      Fig11,
		"figmig":     FigMigration,
		"figzones":   FigZones,
		"figenergy":  FigEnergy,
		"figphase":   FigPhase,
		"figtlb":     FigTLB,
		"figcpu":     FigCPU,
		"figtopo":    FigTopology,
		"figmigtopo": FigMigTopo,
		"figdyn":     FigDyn,
	}
}

// builtinDesc holds the one-line description shown by `hmexp -list`; keep
// entries in sync with builtinOrder.
var builtinDesc = map[string]string{
	"table1":     "simulation-configuration table for the selected topology (paper Table 1)",
	"fig1":       "motivation: bandwidth ratios of likely future heterogeneous memory systems",
	"fig2a":      "bandwidth sensitivity: all-LOCAL performance as GPU-memory bandwidth scales 0.5x-2x",
	"fig2b":      "latency sensitivity: performance as fixed latency is added to every access",
	"fig3":       "placement-ratio sweep: fixed xC-yB splits vs LOCAL/INTERLEAVE/BW-AWARE",
	"fig4":       "capacity constraint: BW-AWARE as the fast pool shrinks to 10% of the footprint",
	"fig5":       "CPU-memory bandwidth sweep: policies as the slow pool approaches parity",
	"fig6":       "page-hotness profiles: DRAM-traffic share of the hottest pages, plus skew",
	"fig7":       "page-hotness case studies: bfs, mummergpu, needle access distributions",
	"fig8":       "oracle study: oracle vs BW-AWARE placement, unconstrained and at 10% capacity",
	"fig10":      "annotated placement: INTERLEAVE/BW-AWARE/ANNOTATED/ORACLE under 10% capacity",
	"fig11":      "annotation robustness: profiles trained on one dataset, evaluated on variants",
	"figmig":     "online migration vs static placement: how much of the oracle gap it recovers",
	"figzones":   "three-pool BW-AWARE: placement fractions converge to bandwidth shares",
	"figenergy":  "energy and energy-delay product of placement policies, normalized to LOCAL",
	"figphase":   "phase-shifting workload: online migration vs every static placement",
	"figtlb":     "page-size study: 4 kB vs 2 MB placement precision with translation costs",
	"figcpu":     "CPU interference: BW-AWARE under CPU traffic, with a contention-aware SBIT",
	"figtopo":    "BW-AWARE edge vs LOCAL/INTERLEAVE across all topology presets",
	"figmigtopo": "migration classifiers (counter, ewma) across topology presets at 10% capacity",
	"figdyn":     "migration dynamics over time: counter vs ewma flight-recorder series on cxl-expansion",
}

// bothClassifiers are the figures that run every migration classifier
// side by side: they override MigratePolicy with each in turn, so
// CheckFigure checks their Migrate spec under each classifier.
var bothClassifiers = map[string]bool{"figmigtopo": true, "figdyn": true}

// CheckFigure adds to Options.Validate the checks that depend on which
// figure reads the options, so a request the figure would fail on is
// refused before any simulation: hmexp exits 2 and the daemon answers
// 400. Today that is one check: a figure comparing both migration
// classifiers needs a Migrate spec valid for each (see classifierArms).
// Unknown ids pass; callers report them.
func CheckFigure(id string, o Options) error {
	if !bothClassifiers[id] {
		return nil
	}
	if _, _, err := o.classifierArms(); err != nil {
		return fmt.Errorf("%s runs both migration classifiers: %w", id, err)
	}
	return nil
}

// Registered extensions, in registration order. Written only from init
// functions (before main starts), read-only afterwards, so no locking.
var (
	extOrder []string
	extFigs  = map[string]func(Options) (Figure, error){}
	extDesc  = map[string]string{}
)

// Register adds a figure reproduction under id with a one-line description
// (shown by `hmexp -list`), making it reachable from ByID, IDs, Describe,
// and All. It is intended for init-time use by packages built on top of
// experiments (which cannot live here without an import cycle); a
// duplicate or built-in id panics — a programming error caught at process
// start.
func Register(id, desc string, fn func(Options) (Figure, error)) {
	if _, dup := builtinFigs()[id]; dup {
		panic(fmt.Sprintf("experiments: Register(%q) collides with a built-in figure", id))
	}
	if _, dup := extFigs[id]; dup {
		panic(fmt.Sprintf("experiments: Register(%q) called twice", id))
	}
	extFigs[id] = fn
	extDesc[id] = desc
	extOrder = append(extOrder, id)
}

// All runs every figure and table reproduction: the built-ins in paper
// order, then registered extensions in registration order.
func All(opts Options) ([]Figure, error) {
	var out []Figure
	for _, id := range IDs() {
		fn, _ := ByID(id)
		fig, err := fn(opts)
		if err != nil {
			return out, err
		}
		out = append(out, fig)
	}
	return out, nil
}

// ByID returns the reproduction function for a figure/table identifier.
func ByID(id string) (func(Options) (Figure, error), bool) {
	if f, ok := builtinFigs()[id]; ok {
		return f, true
	}
	f, ok := extFigs[id]
	return f, ok
}

// Describe returns the one-line description of a figure/table identifier
// ("" for unknown ids).
func Describe(id string) string {
	if d, ok := builtinDesc[id]; ok {
		return d
	}
	return extDesc[id]
}

// IDs lists the reproducible figure/table identifiers: built-ins in paper
// order, then registered extensions.
func IDs() []string {
	ids := append([]string(nil), builtinOrder...)
	return append(ids, extOrder...)
}
