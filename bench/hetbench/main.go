// Command hetbench is hetsim's end-to-end benchmark. It runs five
// workloads: three loops of single simulations (run-bw, run-compute,
// migrate-cxl), a cold pass over six figures (figures), and an in-process
// daemon fleet serving a figure cold and warm (serve-cluster). It prints
// every end-to-end metric with its unit and checks the outputs. With
// -trace 1 it prints per-layer metrics instead: host-time shares from a CPU
// profile, layer costs from a replay of the workload's own recorded access
// stream, and the simulated counters the layers already keep.
//
// Run it from the bench directory:
//
//	go run ./hetbench -seed 1                  # all five workloads, one child process each
//	go run ./hetbench -workload run-bw -trace 1
//	go run ./hetbench -count 5                 # median and quartiles over 5 child runs each
//
// With one -workload and -count 1 the workload runs in this process, and
// the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// defaultSeed selects the canonical inputs: its dataset is
// workloads.Train(), the one every figure is rendered from, and
// golden.json holds its output digests.
const defaultSeed = 1

var workloadNames = []string{"run-bw", "run-compute", "migrate-cxl", "figures", "serve-cluster"}

//go:embed golden.json
var goldenJSON []byte

type params struct {
	seed     int64
	seconds  int // measured seconds; 0 runs one pass
	trace    bool
	traceDir string
	quick    bool
	lanes    int // event lanes for the run workloads; 0 keeps each workload's own
}

func main() {
	var (
		p        params
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		trace    = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics instead of the end-to-end ones")
		count    = flag.Int("count", 1, "runs of each workload, each in a fresh child process")
		golden   = flag.Bool("golden", false, "print the output digests of the default seed as golden.json and exit")
	)
	flag.Int64Var(&p.seed, "seed", defaultSeed, "workload seed; every run config is generated from it")
	flag.IntVar(&p.seconds, "seconds", 20, "measured seconds per workload; 0 runs one pass")
	flag.StringVar(&p.traceDir, "trace-dir", filepath.Join(".bench_build", "hetbench-trace"), "directory for the Chrome traces and CPU profiles of -trace 1")
	flag.BoolVar(&p.quick, "quick", false, "small inputs, for smoke tests")
	flag.IntVar(&p.lanes, "lanes", 0, "event lanes per simulation on the run workloads; 0 keeps each workload's own")
	flag.Parse()

	switch {
	case flag.NArg() > 0:
		fatalf("unexpected arguments %q", flag.Args())
	case *trace != 0 && *trace != 1:
		fatalf("-trace must be 0 or 1")
	case p.seconds < 0 || p.seconds > 3600:
		fatalf("-seconds must be in [0, 3600]")
	case *count < 1:
		fatalf("-count must be at least 1")
	case p.lanes < 0:
		fatalf("-lanes must not be negative")
	}
	p.trace = *trace == 1

	if *golden {
		os.Exit(printGolden(p))
	}
	if *workload != "all" && !slices.Contains(workloadNames, *workload) {
		fatalf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", "))
	}
	if *workload == "all" || *count > 1 {
		names := workloadNames
		if *workload != "all" {
			names = []string{*workload}
		}
		os.Exit(runChildren(names, p, *count))
	}
	rep, err := runWorkload(*workload, p)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	if err := rep.write(os.Stdout); err != nil {
		fatalf("writing report: %v", err)
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "hetbench: "+format+"\n", a...)
	os.Exit(1)
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload. What
// an operation and a pass are depends on the workload; see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_accesses_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"pass_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// figureIDs are the figures of the figures workload, in render order.
var figureIDs = []string{"fig2a", "fig3", "fig4", "fig8", "fig10", "figmigtopo"}

// hostLayers are the buckets CPU-profile samples fold into; see layerOf.
var hostLayers = []string{"sim", "gpu", "cache", "dram", "vm", "memsys", "core", "migrate", "workloads", "runtime", "other"}

// perLayer are the metrics a traced run reports on every workload; a
// metric that does not apply to a workload reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.lane_fallbacks", "count"},
		{"gpu.l1_hit_rate", "ratio"},
		{"gpu.compute_cycles", "cycles"},
		{"cache.l2_hit_rate", "ratio"},
		{"cache.mshr_full_stalls", "count"},
		{"cache.l2_lookup_ns", "ns"},
		{"cache.mshr_alloc_fill_ns", "ns"},
		{"dram.row_hit_rate", "ratio"},
		{"dram.bus_util", "ratio"},
		{"dram.access_ns", "ns"},
		{"vm.translate_ns", "ns"},
		{"memsys.avg_latency_cycles", "cycles"},
		{"memsys.access_ns", "ns"},
		{"core.place_ns", "ns"},
		{"migrate.epochs", "count"},
		{"migrate.promotions", "count"},
		{"migrate.demotions", "count"},
		{"migrate.writeback_stalls", "count"},
		{"migrate.pages", "count"},
		{"workloads.build_ms", "ms"},
		{"pool.runs", "count"},
		{"pool.cache_hits", "count"},
		{"pool.hit_ratio", "ratio"},
		{"serve.handler_us", "us"},
		{"cluster.dispatch_ms", "ms"},
		{"cluster.remote_ok", "count"},
		{"cluster.local_fallbacks", "count"},
		{"cluster.retries", "count"},
		{"runtime.gc_cpu_fraction", "ratio"},
		{"runtime.alloc_bytes_per_access", "B"},
		{"trace_overhead", "ratio"},
		{"calib_ms", "ms"},
	}
	for _, id := range figureIDs {
		defs = append(defs, metricDef{"experiments.figure_ms." + id, "ms"})
	}
	for _, l := range hostLayers {
		defs = append(defs, metricDef{l + ".host_share", "ratio"})
	}
	return defs
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run's result. Its JSON form is the benchmark's
// contract: exactly correct, attempted, failed and metrics.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	defs     []metricDef
	calibMS  float64 // median calibration kernel time
	digest   string
	problems []string
}

func newReport(defs []metricDef) *report {
	return &report{Metrics: map[string]metric{}, defs: defs}
}

func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("hetbench: metric " + name + " is not defined")
}

// write prints one line per metric, the output digest and any failed
// check, and last the JSON result line.
func (r *report) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, d := range r.defs {
		fmt.Fprintf(bw, "%-34s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(bw, "%-34s %16.6g (%d of %d)\n", "fail_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	fmt.Fprintf(bw, "calibration kernel %.4g ms (reference %g ms)\n", r.calibMS, calibRefMS)
	fmt.Fprintf(bw, "digest %s\n", r.digest)
	for _, p := range r.problems {
		fmt.Fprintf(bw, "check failed: %s\n", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// parseReport reads a child's standard output: the digest line and the
// last line, the JSON result.
func parseReport(out []byte) (*report, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "digest "); ok {
			r.digest = d
		}
	}
	return &r, nil
}

// runChild runs one workload in a fresh child process of this binary, so
// the result cache, GC state and peak RSS of one workload never leak into
// another.
func runChild(name string, p params) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.Itoa(p.seconds), "-trace-dir", p.traceDir,
		"-lanes", strconv.Itoa(p.lanes), "-trace", "0",
	}
	if p.trace {
		args[len(args)-1] = "1"
	}
	if p.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r, err := parseReport(out)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return r, nil
}

type spread struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type workloadSummary struct {
	Digest       string            `json:"digest"`
	DigestsEqual bool              `json:"digests_equal"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Correct      bool              `json:"correct"`
	Metrics      map[string]spread `json:"metrics"`
}

// runChildren runs each workload count times in child processes and prints
// every metric's median, quartiles and sample count, then one JSON object
// with the same numbers. It returns the exit code.
func runChildren(names []string, p params, count int) int {
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	all := map[string]workloadSummary{}
	correct := true
	attempted, failed := 0, 0
	for _, name := range names {
		s := workloadSummary{Correct: true, DigestsEqual: true, Metrics: map[string]spread{}}
		values := map[string][]float64{}
		for i := 0; i < count; i++ {
			r, err := runChild(name, p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hetbench:", err)
				return 1
			}
			if i == 0 {
				s.Digest = r.digest
			} else if r.digest != s.Digest {
				s.DigestsEqual = false
			}
			s.Attempted += r.Attempted
			s.Failed += r.Failed
			s.Correct = s.Correct && r.Correct
			for k, m := range r.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		for _, d := range defs {
			v := values[d.name]
			sp := spread{Unit: d.unit, N: len(v), Median: median(v), Q1: quantile(v, 0.25), Q3: quantile(v, 0.75)}
			s.Metrics[d.name] = sp
			fmt.Printf("%-14s %-34s %16.6g  [%.6g, %.6g] n=%d %s\n", name, d.name, sp.Median, sp.Q1, sp.Q3, sp.N, d.unit)
		}
		fmt.Printf("%-14s %-34s %16.6g  (%d of %d)\n", name, "fail_ratio", float64(s.Failed)/float64(max(s.Attempted, 1)), s.Failed, s.Attempted)
		fmt.Printf("%-14s digest %s (equal across runs: %v)\n", name, s.Digest, s.DigestsEqual)
		all[name] = s
		correct = correct && s.Correct && s.DigestsEqual
		attempted += s.Attempted
		failed += s.Failed
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "workloads": all,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// golden is golden.json: the output digests of the default seed, at
// full scale and at -quick scale.
type golden struct {
	Seed  int64             `json:"seed"`
	Full  map[string]string `json:"full"`
	Quick map[string]string `json:"quick"`
}

func loadGolden() (golden, error) {
	var g golden
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// checkGolden compares a default-seed digest with golden.json.
func checkGolden(name string, p params, digest string) error {
	if p.seed != defaultSeed {
		return nil
	}
	g, err := loadGolden()
	if err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want := g.Full[name]
	if p.quick {
		want = g.Quick[name]
	}
	switch {
	case want == "":
		return errors.New("golden.json has no digest for " + name)
	case want != digest:
		return fmt.Errorf("output digest %s differs from golden.json's %s", digest, want)
	}
	return nil
}

// printGolden runs every workload for one pass at the default seed, at both
// scales, and prints golden.json.
func printGolden(p params) int {
	g := golden{Seed: defaultSeed, Full: map[string]string{}, Quick: map[string]string{}}
	p.seed, p.seconds, p.trace, p.lanes = defaultSeed, 0, false, 0
	for _, quick := range []bool{false, true} {
		p.quick = quick
		for _, name := range workloadNames {
			r, err := runChild(name, p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hetbench:", err)
				return 1
			}
			if r.digest == "" {
				fmt.Fprintf(os.Stderr, "hetbench: %s printed no digest\n", name)
				return 1
			}
			if quick {
				g.Quick[name] = r.digest
			} else {
				g.Full[name] = r.digest
			}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(g); err != nil {
		fmt.Fprintln(os.Stderr, "hetbench:", err)
		return 1
	}
	os.Stdout.Write(buf.Bytes())
	return 0
}

// median of v (0 for none).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the p-quantile of v by the exclusive method, the one
// Python's statistics.quantiles uses by default, so -count quartiles match
// the benchmark's agreement check. It is 0 for no values.
func quantile(v []float64, p float64) float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	switch n := len(d); n {
	case 0:
		return 0
	case 1:
		return d[0]
	default:
		pos := p * float64(n+1)
		j := min(max(int(math.Floor(pos)), 1), n-1)
		return d[j-1] + (d[j]-d[j-1])*(pos-float64(j))
	}
}
