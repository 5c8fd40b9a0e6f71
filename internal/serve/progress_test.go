package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"hetsim/internal/obs"
)

// TestProbedRunProgress is the live-streaming scenario: a run submitted
// with ?probe= streams NDJSON chunks from GET /v1/jobs/{id}/progress, the
// chunks reassemble into one gapless series, and the stream ends with the
// job's terminal state.
func TestProbedRunProgress(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, body := post(t, ts.URL+"/v1/runs?probe=interval=500,samples=64", `{"Workload":"bfs","Shrink":16}`)
	if code != http.StatusAccepted {
		t.Fatalf("probed submit: status %d, body %s", code, body)
	}
	var j struct {
		ID     string `json:"id"`
		Probed bool   `json:"probed"`
	}
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if !j.Probed {
		t.Fatalf("job view not marked probed: %s", body)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("progress Content-Type = %q", ct)
	}

	var (
		rows      [][]float64
		lines     int
		sawFinal  bool
		lastState JobState
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var line struct {
			Job   string        `json:"job"`
			State JobState      `json:"state"`
			Chunk *obs.Snapshot `json:"chunk"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Job != j.ID {
			t.Fatalf("line names job %q, want %q", line.Job, j.ID)
		}
		if line.Chunk != nil {
			rows = append(rows, line.Chunk.Rows...)
			if line.Chunk.Dropped != 0 {
				t.Errorf("stream dropped %d samples with a 64-deep ring", line.Chunk.Dropped)
			}
			if line.Chunk.Final {
				sawFinal = true
			}
		} else {
			lastState = line.State
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || !sawFinal || lastState != JobDone {
		t.Fatalf("stream: %d lines, final chunk %v, last state %q; want chunks + final + done",
			lines, sawFinal, lastState)
	}
	// Reassembled chunks form one gapless non-decreasing time series.
	if len(rows) < 2 {
		t.Fatalf("reassembled %d rows, want >= 2 (baseline + final)", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][0] < rows[i-1][0] {
			t.Fatalf("row %d time %g < previous %g", i, rows[i][0], rows[i-1][0])
		}
	}

	// ?once=1 after completion: the whole series in one pass plus the state.
	code, body = get(t, ts.URL+"/v1/jobs/"+j.ID+"/progress?once=1")
	if code != http.StatusOK {
		t.Fatalf("once: status %d", code)
	}
	onceLines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(onceLines) != 2 {
		t.Fatalf("once pass wrote %d lines, want chunk + state", len(onceLines))
	}
	var chunk struct {
		Chunk *obs.Snapshot `json:"chunk"`
	}
	if err := json.Unmarshal([]byte(onceLines[0]), &chunk); err != nil || chunk.Chunk == nil {
		t.Fatalf("once first line is not a chunk: %s (%v)", onceLines[0], err)
	}
	if len(chunk.Chunk.Rows) != len(rows) {
		t.Errorf("once pass carries %d rows, streamed total was %d", len(chunk.Chunk.Rows), len(rows))
	}
	if !strings.Contains(onceLines[1], `"state":"done"`) {
		t.Errorf("once last line lacks terminal state: %s", onceLines[1])
	}
}

// Probed submissions are never deduplicated, and their rejects are 400s:
// a daemon-side out= path and a malformed spec.
func TestProbeSubmissionRules(t *testing.T) {
	s, ts := testServer(t, Config{})
	body := `{"Workload":"bfs","Shrink":32}`
	var ids []string
	for i := 0; i < 2; i++ {
		code, resp := post(t, ts.URL+"/v1/runs?probe=on", body)
		if code != http.StatusAccepted {
			t.Fatalf("probed submit %d: status %d, body %s", i, code, resp)
		}
		var j struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(resp, &j); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if ids[0] == ids[1] {
		t.Errorf("probed resubmission deduplicated onto %s; probed jobs must be distinct", ids[0])
	}
	s.mu.Lock()
	deduped := s.jobsDeduped
	probed := s.jobsProbed
	s.mu.Unlock()
	if deduped != 0 || probed != 2 {
		t.Errorf("deduped=%d probed=%d, want 0 and 2", deduped, probed)
	}

	if code, resp := post(t, ts.URL+"/v1/runs?probe=interval=500,out=/tmp/x.csv", body); code != http.StatusBadRequest {
		t.Errorf("out= accepted: status %d, body %s", code, resp)
	}
	if code, _ := post(t, ts.URL+"/v1/runs?probe=interval=0", body); code != http.StatusBadRequest {
		t.Errorf("bad spec accepted: status %d", code)
	}
	if code, resp := post(t, ts.URL+"/v1/sweeps?probe=junk", `{"configs":[{"Workload":"bfs","Shrink":32}]}`); code != http.StatusBadRequest {
		t.Errorf("sweep bad spec accepted: status %d, body %s", code, resp)
	}
}

// /progress 404s unknown jobs and 400s jobs that carry no recorder.
func TestProgressErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	if code, _ := get(t, ts.URL+"/v1/jobs/nope/progress"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	code, body := post(t, ts.URL+"/v1/runs", `{"Workload":"bfs","Shrink":32}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, ts.URL+"/v1/jobs/"+j.ID+"/progress")
	if code != http.StatusBadRequest || !strings.Contains(string(body), "?probe=") {
		t.Errorf("unprobed job: status %d body %s, want 400 naming ?probe=", code, body)
	}
}

// A probed sweep streams one labeled series per config.
func TestProbedSweepSeries(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, body := post(t, ts.URL+"/v1/sweeps?probe=interval=1000,samples=32",
		`{"configs":[{"Workload":"bfs","Shrink":32},{"Workload":"hotspot","Shrink":32}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit: status %d, body %s", code, body)
	}
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, ts.URL+"/v1/jobs/"+j.ID+"/progress") // follows to completion
	if code != http.StatusOK {
		t.Fatalf("progress: status %d", code)
	}
	labels := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var l struct {
			Label string `json:"label"`
		}
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatal(err)
		}
		if l.Label != "" {
			labels[l.Label] = true
		}
	}
	for _, want := range []string{"bfs[0]", "hotspot[1]"} {
		if !labels[want] {
			t.Errorf("stream missing series %q (have %v)", want, labels)
		}
	}
}

// /healthz carries the binary's build identity and uptime.
func TestBuildInfoEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: status %d", code)
	}
	var health struct {
		Build  BuildInfo `json:"build"`
		Uptime float64   `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Build.GoVersion == "" {
		t.Errorf("/healthz build lacks go_version: %s", body)
	}
	if health.Build.Version == "" {
		t.Errorf("/healthz build lacks version: %s", body)
	}
	if health.Uptime < 0 {
		t.Errorf("/healthz uptime %v is negative", health.Uptime)
	}
}
