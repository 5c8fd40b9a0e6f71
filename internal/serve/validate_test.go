package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"hetsim/internal/core"
	"hetsim/internal/experiments"
	"hetsim/internal/gpu"
	"hetsim/internal/memsys"
	"hetsim/internal/tlb"
	"hetsim/internal/vm"
)

// TestSubmitRejectsMalformedConfigs: /v1/runs, and /v1/sweeps with the
// config second in its grid, answer 400 to every malformed config of
// experiments.TestRunRejectsMalformedMem that RunConfig.Validate refuses
// (all but the zone-span row, which fails only when the workload
// allocates), and queue no job.
func TestSubmitRejectsMalformedConfigs(t *testing.T) {
	_, ts := testServer(t, Config{})
	valid, err := json.Marshal(experiments.RunConfig{Workload: "bfs", Shrink: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		mut  func(*experiments.RunConfig)
	}{
		{"negative hop", func(rc *experiments.RunConfig) { rc.Mem.Zones[1].ExtraLatency = -100 }},
		{"negative global latency", func(rc *experiments.RunConfig) { rc.Mem.GlobalExtraLatency = -100 }},
		{"duplicate zone IDs", func(rc *experiments.RunConfig) { rc.Mem.Zones[1].Zone = rc.Mem.Zones[0].Zone }},
		{"zone ID out of range", func(rc *experiments.RunConfig) { rc.Mem.Zones[1].Zone = vm.MaxZones }},
		{"empty zone name", func(rc *experiments.RunConfig) { rc.Mem.Zones[1].Name = "" }},
		{"duplicate zone names", func(rc *experiments.RunConfig) { rc.Mem.Zones[1].Name = rc.Mem.Zones[0].Name }},
		{"page size not a power of two", func(rc *experiments.RunConfig) { rc.PageSize = 3 }},
		{"1-byte pages", func(rc *experiments.RunConfig) { rc.PageSize = 1 }},
		{"16-byte pages", func(rc *experiments.RunConfig) { rc.PageSize = 16 }},
		{"64-byte pages, below the 128-byte line", func(rc *experiments.RunConfig) { rc.PageSize = 64 }},
		{"negative SMs", func(rc *experiments.RunConfig) { rc.GPU.SMs = -2 }},
		{"no warps per SM", func(rc *experiments.RunConfig) { rc.GPU = gpu.Config{SMs: 1} }},
		{"empty TLB", func(rc *experiments.RunConfig) { rc.TLB = &tlb.Config{} }},
		{"ratio above 100", func(rc *experiments.RunConfig) { rc.Policy, rc.PercentCO = experiments.RatioPolicy, 150 }},
		{"negative ratio", func(rc *experiments.RunConfig) { rc.Policy, rc.PercentCO = experiments.RatioPolicy, -5 }},
		{"negative CPU traffic", func(rc *experiments.RunConfig) { rc.CPUTrafficGBps = -40 }},
		{"hints outside the placement hints", func(rc *experiments.RunConfig) {
			rc.Policy, rc.Hints = experiments.HintedPolicy, []core.Hint{99, 99, 99, 99, 99, 99}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rc := experiments.RunConfig{Workload: "bfs", Policy: experiments.BWAwarePolicy, Shrink: 64, Mem: memsys.Table1Config()}
			c.mut(&rc)
			bad, err := json.Marshal(rc)
			if err != nil {
				t.Fatal(err)
			}
			if code, body := post(t, ts.URL+"/v1/runs", string(bad)); code != http.StatusBadRequest {
				t.Errorf("/v1/runs: status %d (body %s), want 400", code, body)
			}
			code, body := post(t, ts.URL+"/v1/sweeps", fmt.Sprintf(`{"configs":[%s,%s]}`, valid, bad))
			if code != http.StatusBadRequest || !strings.Contains(string(body), "config 1") {
				t.Errorf("/v1/sweeps: status %d (body %s), want 400 naming config 1", code, body)
			}
		})
	}
	if n := metric(t, ts, "jobs_submitted_total"); n != 0 {
		t.Errorf("%v jobs queued for refused configs, want none", n)
	}
}
