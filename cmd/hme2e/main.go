// Command hme2e runs the end-to-end checks on real binaries. It builds
// hmsim, hmexp, hmserved and hmtrace once, then runs the scenarios named
// on its command line in order:
//
//	hme2e topology migration tune probe   # the make check set
//	hme2e cluster trace                   # multi-daemon fleets
//	hme2e fleet [n]                       # serve n workers until ctrl-C
//
// Each scenario checks that output bytes stay the same wherever they must
// — local, through hmserved, across a cluster, with probes on — and that
// its rows of the refused table exit with status 2.
// Its daemons bind 127.0.0.1:0 and are reached at the address they log as
// bound, so several hme2e runs can share a host. Scratch files live in a
// temporary directory removed on exit; the trace scenario leaves
// trace-smoke.json in the working directory for a timeline viewer.
//
// hme2e exits 1 if a scenario failed and 2 on a bad command line.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	anyPort  = "127.0.0.1:0"
	sweep    = "-shrink 16 -workloads bfs,stencil"
	bfsSweep = "-shrink 16 -workloads bfs"
	tuneOpts = "-tune -shrink 64 -tune-budget 6"
	// probeRun migrates at 10% capacity, so a probe records mig.* columns.
	probeRun = "-workload bfs -policy bw-aware -capacity 0.1 -shrink 16 -migrate on"
	presets  = "k40-ddr4 gh200 cxl-expansion"
	// runTimeout bounds one binary's run, so a daemon that wrongly accepts
	// a refused invocation fails its check instead of hanging hme2e.
	runTimeout = 5 * time.Minute
)

var scenarios = map[string]func(*scenario){
	"cluster":   cluster,
	"trace":     trace,
	"topology":  topology,
	"migration": migration,
	"tune":      tune,
	"probe":     probe,
}

// refused lists the invocations each scenario expects to exit with status
// 2: bad run options and specs are refused before any simulation starts or
// any request is sent. URL stands for the scenario daemon's base URL.
var refused = []struct{ scenario, cmd string }{
	{"topology", "hmexp -topology hbm9000 fig3"},
	{"topology", "hmsim -topology hbm9000 -workload bfs"},
	{"topology", "hmserved -topology gh200 -addr " + anyPort},
	{"topology", "hmsim -shrink -7 -workload bfs"},
	{"topology", "hmsim -shrink 0 -workload bfs"},
	{"topology", "hmexp -shrink -5 fig3"},
	{"topology", "hmexp -workers -3 fig3"},
	{"topology", "hmexp -workloads nosuch fig3"},
	{"topology", "hmserved -workers -1 -addr " + anyPort},
	{"migration", "hmexp -migrate epoch=banana fig3"},
	{"migration", "hmexp -migrate policy=mystery fig3"},
	{"migration", "hmexp -migrate alpha=0,policy=ewma figmig"},
	{"migration", "hmexp -migrate-policy ewma fig3"},
	{"migration", "hmexp -shrink 32 -workloads bfs -migrate alpha=0 figmigtopo"},
	{"migration", "hmexp -migrate alpha=0 figdyn"},
	{"migration", "hmexp -server URL -migrate alpha=0 figmigtopo"},
	{"migration", "hmsim -migrate minheat=0 -workload bfs"},
	{"migration", "hmsim -migrate policy=mystery -workload bfs"},
	{"migration", "hmsim -migrate alpha=0,policy=ewma -workload bfs"},
	{"migration", "hmserved -migrate on -addr " + anyPort},
	{"tune", "hmexp -tune -tune-strategy anneal bfs"},
	{"tune", "hmexp -tune -tune-budget 0 bfs"},
	{"tune", "hmexp -tune-budget 4 fig3"},
	{"tune", "hmexp -tune-strategy grid fig3"},
	{"tune", "hmexp -tune -migrate epoch=1000 bfs"},
	{"tune", "hmsim -policy fifo -workload bfs"},
	{"tune", "hmsim -dataset huge -workload bfs"},
	{"probe", "hmsim -probe samples=1 -workload bfs"},
	{"probe", "hmexp -probe format=xml fig3"},
	{"probe", "hmexp -probe on -server URL fig3"},
}

var client = &http.Client{Timeout: 2 * time.Minute}

func main() { os.Exit(drive(os.Args[1:])) }

func drive(args []string) int {
	names, fleetSize, err := parseArgs(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hme2e: %v\nusage: hme2e scenario... | hme2e fleet [n]\nscenarios: cluster trace topology migration tune probe\n", err)
		return 2
	}
	root, err := os.MkdirTemp("", "hme2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hme2e:", err)
		return 1
	}
	defer os.RemoveAll(root)
	bin := filepath.Join(root, "bin")
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"hetsim/cmd/hmsim", "hetsim/cmd/hmexp", "hetsim/cmd/hmserved", "hetsim/cmd/hmtrace")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "hme2e: go build:", err)
		return 1
	}
	status := 0
	for _, name := range names {
		body := scenarios[name]
		if name == "fleet" {
			body = func(s *scenario) { fleet(s, fleetSize) }
		}
		start := time.Now()
		if err := runScenario(root, bin, name, body); err != nil {
			fmt.Printf("FAIL %s (%.1fs): %v\n", name, time.Since(start).Seconds(), err)
			status = 1
			continue
		}
		fmt.Printf("ok   %s (%.1fs)\n", name, time.Since(start).Seconds())
	}
	return status
}

// parseArgs checks the command line: scenario names, or fleet with an
// optional worker count (default 3). It returns the scenarios to run and
// the fleet size.
func parseArgs(args []string) ([]string, int, error) {
	if len(args) > 0 && args[0] == "fleet" {
		n, err := 3, error(nil)
		if len(args) > 1 {
			n, err = strconv.Atoi(args[1])
		}
		if err != nil || n < 1 || len(args) > 2 {
			return nil, 0, fmt.Errorf("fleet takes one positive worker count, got %q", args[1:])
		}
		return args[:1], n, nil
	}
	if len(args) == 0 {
		return nil, 0, errors.New("no scenario named")
	}
	for _, a := range args {
		if scenarios[a] == nil {
			return nil, 0, fmt.Errorf("unknown scenario %q", a)
		}
	}
	return args, 0, nil
}

// failure is a failed check; the scenario's helpers panic with it and
// runScenario reports it as the scenario's error.
type failure string

func (f failure) Error() string { return string(f) }

// scenario is one scenario run: where the binaries and scratch
// directories are, and the daemons it started.
type scenario struct {
	name, bin, tmp string
	daemons        []*daemon
	echo           io.Writer // daemon logs are copied here too (fleet: stderr)
}

// runScenario runs body with scratch directories under root, stops the
// daemons it started, and returns its failed check, if any.
func runScenario(root, bin, name string, body func(*scenario)) (err error) {
	s := &scenario{name: name, bin: bin, tmp: root, echo: io.Discard}
	defer func() {
		s.stopDaemons()
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			err = f
		}
	}()
	body(s)
	return nil
}

// fatalf fails the running scenario with the formatted message.
func (s *scenario) fatalf(format string, args ...any) {
	panic(failure(fmt.Sprintf(format, args...)))
}

// must returns v, failing the running scenario on err.
func must[T any](v T, err error) T {
	if err != nil {
		panic(failure(err.Error()))
	}
	return v
}

// want fails the scenario with the formatted message unless ok.
func (s *scenario) want(ok bool, format string, args ...any) {
	if !ok {
		s.fatalf(format, args...)
	}
}

// run runs a built binary and fails unless it exits with status want.
// cmdline is the binary's name and its space-separated arguments; extra
// arguments (paths) are passed verbatim after them. It returns stdout and
// stderr.
func (s *scenario) run(want int, cmdline string, extra ...string) (string, string) {
	args := append(strings.Fields(cmdline), extra...)
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(s.bin, args[0]), args[1:]...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); cmd.ProcessState == nil {
		s.fatalf("%s: %v", args[0], err)
	}
	if code := cmd.ProcessState.ExitCode(); code != want {
		s.fatalf("%s exited %d, want %d\n%s", strings.Join(args, " "), code, want, tail(stderr.String()))
	}
	return stdout.String(), stderr.String()
}

// out runs a built binary that must succeed and returns its stdout.
func (s *scenario) out(cmdline string, extra ...string) string {
	stdout, _ := s.run(0, cmdline, extra...)
	return stdout
}

// dir returns a fresh, empty scratch directory.
func (s *scenario) dir() string { return must(os.MkdirTemp(s.tmp, "")) }

func (s *scenario) read(path string) string { return string(must(os.ReadFile(path))) }

// render renders fig with hmexp -out and returns its CSV, which must not
// be empty. flags are split on spaces; extra arguments pass verbatim.
func (s *scenario) render(fig, flags string, extra ...string) string {
	dir := s.dir()
	s.run(0, "hmexp "+flags, append(extra, "-out", dir, fig)...)
	csv := s.read(filepath.Join(dir, fig+".csv"))
	s.want(csv != "", "hmexp %s %s: empty %s.csv", flags, fig, fig)
	return csv
}

// same fails unless got and want are byte-identical, quoting the first
// line where they part. Only a final line lacks its newline, so unequal
// outputs part before either runs out of lines.
func (s *scenario) same(what, got, want string) {
	if got == want {
		return
	}
	g, w := strings.SplitAfter(got, "\n"), strings.SplitAfter(want, "\n")
	i := 0
	for g[i] == w[i] {
		i++
	}
	s.fatalf("%s: output differs at line %d:\n  got  %q\n  want %q", what, i+1, g[i], w[i])
}

// record writes bfs's access trace with hmsim -trace and returns its path.
func (s *scenario) record(flags string) string {
	trc := filepath.Join(s.dir(), "bfs.trc")
	s.run(0, "hmsim -workload bfs -shrink 16 "+flags+" -trace", trc)
	return trc
}

// refuse runs the scenario's rows of the refused table against the
// daemon at url and returns each refusal's stdout and stderr.
func (s *scenario) refuse(url string) []string {
	var outs []string
	for _, r := range refused {
		if r.scenario == s.name {
			stdout, stderr := s.run(2, strings.ReplaceAll(r.cmd, "URL", url))
			outs = append(outs, stdout+stderr)
		}
	}
	return outs
}

// daemon is one hmserved process a scenario started.
type daemon struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
}

// daemon starts hmserved on addr with a throwaway cache and the given
// flags, and returns its base URL once it has logged the address it bound
// and answered /healthz. It fails if the daemon exits first or logs no
// address within 10 s.
func (s *scenario) daemon(addr, flags string) string {
	dir := s.dir()
	log := must(os.Create(filepath.Join(dir, "log")))
	args := append([]string{"-addr", addr, "-cache-dir", filepath.Join(dir, "cache"), "-drain", "5s"}, strings.Fields(flags)...)
	cmd := exec.Command(filepath.Join(s.bin, "hmserved"), args...)
	cmd.Stderr = io.MultiWriter(log, s.echo)
	if err := cmd.Start(); err != nil {
		log.Close()
		s.fatalf("hmserved: %v", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait() // the exit status is read from cmd.ProcessState
		log.Close()
		close(d.done)
	}()
	s.daemons = append(s.daemons, d)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		select {
		case <-d.done:
			s.fatalf("hmserved -addr %s %s: %v\n%s", addr, flags, cmd.ProcessState, tail(s.read(log.Name())))
		default:
		}
		// Connections to the bound port queue until Serve takes them.
		if bound := listening(s.read(log.Name())); bound != "" {
			s.request("http://"+bound+"/healthz", "", http.StatusOK)
			return "http://" + bound
		}
	}
	s.fatalf("hmserved -addr %s %s: no address logged after 10 s\n%s", addr, flags, tail(s.read(log.Name())))
	return ""
}

// listening returns the address a daemon's log reports as bound, or ""
// while it reports none.
func listening(log string) string {
	for _, line := range strings.Split(log, "\n") {
		var rec struct{ Msg, Addr string }
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "listening" {
			return rec.Addr
		}
	}
	return ""
}

// stopDaemons sends each daemon SIGTERM, as ctrl-C would, and waits for
// all of them to drain and exit.
func (s *scenario) stopDaemons() {
	for _, d := range s.daemons {
		d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	}
	for _, d := range s.daemons {
		<-d.done
	}
}

// request sends one HTTP request — a GET, or a POST of the JSON body
// when there is one — and fails unless the answer has status want. It
// returns the response body.
func (s *scenario) request(url, body string, want int) string {
	var resp *http.Response
	if body == "" {
		resp = must(client.Get(url))
	} else {
		resp = must(client.Post(url, "application/json", strings.NewReader(body)))
	}
	defer resp.Body.Close()
	got := string(must(io.ReadAll(resp.Body)))
	s.want(resp.StatusCode == want, "%s answered %d, want %d: %s", url, resp.StatusCode, want, got)
	return got
}

// metric reads one unlabeled series from a daemon's /metrics.
func (s *scenario) metric(url, name string) float64 {
	metrics := s.request(url+"/metrics", "", http.StatusOK)
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindStringSubmatch(metrics)
	s.want(m != nil, "%s/metrics has no %s", url, name)
	return must(strconv.ParseFloat(m[1], 64))
}

// hasLine reports whether a line of text starts with prefix.
func hasLine(text, prefix string) bool {
	return strings.HasPrefix(text, prefix) || strings.Contains(text, "\n"+prefix)
}

// tail returns the last lines of a log for a failure message.
func tail(text string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-20):], "\n")
}

// cluster: fig2a rendered across a 2-worker fleet and through a
// coordinator daemon over the same fleet matches a local render byte for
// byte, and the coordinator's /metrics counts the runs the fleet served.
func cluster(s *scenario) {
	fleet := s.daemon(anyPort, "") + "," + s.daemon(anyPort, "")
	viaFleet := s.render("fig2a", "-cluster "+fleet+" "+sweep)
	coord := s.daemon(anyPort, "-cluster "+fleet)
	viaCoord := s.render("fig2a", "-server "+coord+" "+sweep)
	local := s.render("fig2a", sweep)
	s.same("fig2a across the fleet", viaFleet, local)
	s.same("fig2a through a coordinator", viaCoord, local)
	s.want(s.metric(coord, "hmserved_cluster_remote_total") > 0, "the coordinator's /metrics counts no run served by the fleet")
}

// trace: a sweep across a 2-worker fleet with -trace-out leaves a
// Chrome/Perfetto timeline, trace-smoke.json, that hmtrace validates and
// that names worker processes by the addresses they bound.
func trace(s *scenario) {
	w1, w2 := s.daemon(anyPort, "-telemetry"), s.daemon(anyPort, "-telemetry")
	s.render("fig2a", "-cluster "+w1+","+w2+" -trace-out trace-smoke.json "+sweep)
	s.out("hmtrace validate trace-smoke.json")
	timeline := s.read("trace-smoke.json")
	named := func(w string) bool { return strings.Contains(timeline, strconv.Quote("hmserved "+w[len("http://"):])) }
	// Rendezvous hashing over random ports may send every run to one worker.
	s.want(named(w1) || named(w2), "trace-smoke.json names no worker by the address it bound")
}

// topology: fig3 on every preset. k40-ddr4 reproduces the default Table 1
// render and gh200 and cxl-expansion change it; hmserved serves
// ?topology= byte-identically; figtopo renders; a recorded trace replays
// on every preset; an unknown preset is refused naming the presets, and
// bad -shrink, -workers and -workloads values are refused too.
func topology(s *scenario) {
	def := s.render("fig3", sweep)
	local := map[string]string{}
	for _, p := range strings.Fields(presets) {
		local[p] = s.render("fig3", "-topology "+p+" "+sweep)
	}
	s.same("fig3 on k40-ddr4 vs the default", local["k40-ddr4"], def)
	for _, p := range []string{"gh200", "cxl-expansion"} {
		s.want(local[p] != def, "fig3 on %s equals the default: preset not applied", p)
	}
	s.render("figtopo", sweep)
	srv := s.daemon(anyPort, "")
	for _, p := range strings.Fields(presets) {
		s.same("fig3 on "+p+" from hmserved", s.render("fig3", "-server "+srv+" -topology "+p+" "+sweep), local[p])
	}
	gh200 := s.out("hmsim -workload bfs -policy bw-aware -topology gh200 -shrink 16")
	s.want(strings.Contains(gh200, "pages per pool"), "hmsim -topology gh200 printed no pages per pool")
	trc := s.record("")
	for _, p := range strings.Fields(presets) {
		s.out("hmsim -json -topology "+p+" -replay", trc)
	}
	for _, out := range s.refuse(srv) {
		s.want(!strings.Contains(out, "hbm9000") || strings.Contains(out, "k40-ddr4"),
			"an unknown topology's refusal names no presets:\n%s", out)
	}
}

// migration: figmigtopo renders every preset and reruns byte-identically;
// -migrate off changes no byte; hmsim -migrate on reports migration;
// hmserved serves ?migrate= byte-identically and answers bad figure
// options with 400; hmexp -server refuses them without a request.
func migration(s *scenario) {
	mig := s.render("figmigtopo", bfsSweep)
	s.same("figmigtopo rerun", s.render("figmigtopo", bfsSweep), mig)
	for _, p := range strings.Fields(presets) {
		s.want(strings.Contains(mig, p), "figmigtopo CSV lacks preset %s", p)
	}
	s.same("fig3 with -migrate off", s.render("fig3", "-migrate off "+bfsSweep), s.render("fig3", bfsSweep))
	summary := s.out("hmsim -workload bfs -policy bw-aware -capacity 0.1 -shrink 16 -migrate on")
	s.want(hasLine(summary, "migration"), "hmsim -migrate on printed no migration summary")
	srv := s.daemon(anyPort, "")
	for _, spec := range []string{"on", "policy=ewma"} {
		s.same("figmig -migrate "+spec+" from hmserved",
			s.render("figmig", "-server "+srv+" -migrate "+spec+" "+bfsSweep),
			s.render("figmig", "-migrate "+spec+" "+bfsSweep))
	}
	for _, q := range []string{
		"fig3?workloads=nosuch",
		"figmig?migrate=alpha%3D0%2Cpolicy%3Dewma",
		"figmig?migrate-policy=ewma",
		"figmigtopo?shrink=32&workloads=bfs&migrate=alpha%3D0",
		"figdyn?migrate=alpha%3D0",
		"fig3?shrink=0",
		"fig3?workers=-1",
	} {
		s.request(srv+"/v1/figures/"+q, "", http.StatusBadRequest)
	}
	// The second /metrics scrape is the only request between the reads.
	before := s.metric(srv, "hmserved_http_requests_total")
	_, stderr := s.run(2, "hmexp -server "+srv+" -workloads nosuch fig3")
	after := s.metric(srv, "hmserved_http_requests_total")
	s.want(!strings.Contains(strings.TrimSpace(stderr), "\n") && strings.Contains(stderr, "nosuch"),
		"hmexp -server -workloads nosuch: want one error naming the workload, got:\n%s", stderr)
	s.want(after == before+1, "hmexp -server sent a request for refused options (%v -> %v requests)", before, after)
	s.refuse(srv)
}

// tune: hmexp -tune prints the same report across processes, workers,
// the daemon (POST /v1/tune, then deduplicated) and cluster
// dispatch; the daemon answers a bad tune spec with 422.
func tune(s *scenario) {
	report := s.out("hmexp " + tuneOpts + " bfs")
	s.want(hasLine(report, "  winner"), "hmexp -tune report has no winner line:\n%s", report)
	s.same("hmexp -tune rerun", s.out("hmexp "+tuneOpts+" bfs"), report)
	s.same("hmexp -tune at -workers 1", s.out("hmexp -workers 1 "+tuneOpts+" bfs"), report)
	srv := s.daemon(anyPort, "")
	s.same("POST /v1/tune", s.out("hmexp -server "+srv+" "+tuneOpts+" bfs"), report)
	s.same("repeated POST /v1/tune", s.out("hmexp -server "+srv+" "+tuneOpts+" bfs"), report)
	s.want(s.metric(srv, "hmserved_tune_jobs_total") == 1, "hmserved_tune_jobs_total is not 1 after a repeated tune")
	s.same("hmexp -tune across a cluster", s.out("hmexp -cluster "+srv+" "+tuneOpts+" bfs"), report)
	_, stderr := s.run(1, "hmexp -server "+srv+" -tune no-such-workload")
	s.want(strings.Contains(stderr, "422"), "bad tune workload not refused with 422:\n%s", stderr)
	s.refuse(srv)
}

// probe: runs, replays and figures are byte-identical with probes on or
// off; probe series and trace counter tracks validate
// with hmtrace counters; hmexp -list names the registry; figdyn renders
// deterministically; hmserved streams a ?probe= job over /progress and
// answers a probe out= path with 400.
func probe(s *scenario) {
	plain := s.out("hmsim -json " + probeRun)
	s.same("hmsim -json with -probe on", s.out("hmsim -json -probe on "+probeRun), plain)
	s.same("hmsim -json with a 1000-cycle probe", s.out("hmsim -json -probe interval=1000 "+probeRun), plain)
	trc := s.record("-probe on")
	s.same("probed replay", s.out("hmsim -json -probe on -replay", trc), s.out("hmsim -json -replay", trc))
	dir := s.dir()
	for _, ext := range []string{"csv", "json"} {
		series := filepath.Join(dir, "series."+ext)
		s.out("hmsim "+probeRun+" -probe", "interval=2000,out="+series)
		s.out("hmtrace counters", series)
		s.want(strings.Contains(s.read(series), "mig.promotions"), "migration run's %s series lacks mig.* columns", ext)
	}
	prefix, timeline := filepath.Join(dir, "exp"), filepath.Join(dir, "trace.json")
	probed := s.render("fig3", bfsSweep, "-probe", "interval=2000,out="+prefix, "-trace-out", timeline)
	dumps, _ := filepath.Glob(prefix + ".bfs.*.json")
	s.want(len(dumps) > 0, "hmexp -probe wrote no per-run series")
	s.out("hmtrace counters", dumps[0])
	s.out("hmtrace counters", timeline)
	s.same("fig3 with -probe", probed, s.render("fig3", bfsSweep))
	list := s.out("hmexp -list")
	for _, id := range []string{"table1", "fig2a", "figdyn", "figtune"} {
		s.want(hasLine(list, id), "hmexp -list lacks %s", id)
	}
	dyn := s.render("figdyn", "-shrink 16")
	s.same("figdyn at -workers 1", s.render("figdyn", "-shrink 16 -workers 1"), dyn)
	s.want(strings.Contains(dyn, "counter") && strings.Contains(dyn, "ewma"), "figdyn CSV lacks its policy arms")

	srv := s.daemon(anyPort, "")
	s.want(strings.Contains(s.request(srv+"/healthz", "", http.StatusOK), "go_version"), "/healthz reports no build identity")
	s.request(srv+"/debug/vars", "", http.StatusNotFound)
	body := s.request(srv+"/v1/runs?probe=interval=500,samples=256", `{"Workload":"bfs","Shrink":16,"BOCapacityFrac":0.1}`, http.StatusAccepted)
	var job struct{ ID string }
	s.want(json.Unmarshal([]byte(body), &job) == nil && job.ID != "", "probed submission returned no job id: %s", body)
	progress := s.request(srv+"/v1/jobs/"+job.ID+"/progress", "", http.StatusOK)
	s.want(strings.Contains(progress, `"state":"done"`), "/progress never reached done:\n%s", tail(progress))
	s.want(strings.Contains(progress, `"time_cycles"`), "/progress carried no series chunks")
	query := url.Values{"probe": {"out=" + filepath.Join(dir, "evil.csv")}}.Encode()
	s.request(srv+"/v1/runs?"+query, `{"Workload":"bfs"}`, http.StatusBadRequest)
	s.refuse(srv)
}

// fleet serves n workers on 127.0.0.1:18081 onward, the addresses
// EXPERIMENTS.md's cluster walkthrough uses, with their logs on stderr,
// until ctrl-C.
func fleet(s *scenario, n int) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s.echo = os.Stderr
	urls := make([]string, n)
	for i := range urls {
		urls[i] = s.daemon(fmt.Sprintf("127.0.0.1:%d", 18081+i), "")
	}
	list := strings.Join(urls, ",")
	fmt.Printf("fleet up: %s\ntry: go run ./cmd/hmexp -cluster %s %s fig2a\nctrl-C stops the fleet\n", list, list, sweep)
	<-ctx.Done()
}
