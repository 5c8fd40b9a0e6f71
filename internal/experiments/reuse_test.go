package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hetsim/internal/memsys"
	"hetsim/internal/migrate"
	"hetsim/internal/topology"
	"hetsim/internal/vm"
	"hetsim/internal/workloads"
)

func presetMem(t *testing.T, name string) memsys.Config {
	t.Helper()
	top, err := topology.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	return top.MemsysConfig()
}

// TestCapRuleDifferential checks capUnreached against simulation. For the
// static policies (LOCAL, INTERLEAVE, BW-AWARE, 30C-70B, annotated) on
// three topologies and three workloads, every Fig4 fraction is simulated
// next to its uncapped twin: where the rule calls the cap unreached the
// Result JSON must equal the twin's, everywhere else it must differ, and
// each workload must have a binding fraction. ORACLE and migration
// configs must never qualify.
func TestCapRuleDifferential(t *testing.T) {
	const shrink = 8
	wls := []string{"bfs", "mriq", "sgemm"}
	policies := []PolicyKind{LocalPolicy, InterleavePolicy, BWAwarePolicy, RatioPolicy, HintedPolicy}
	e := NewIsolatedExecutor(0)
	var twins []RunConfig
	for _, name := range []string{"k40-ddr4", "gh200", "cxl-expansion"} {
		mem := presetMem(t, name)
		for _, wl := range wls {
			hints, err := e.AnnotatedHintsOn(wl, workloads.Train(), workloads.Train(), constrainedFrac, shrink, mem)
			if err != nil {
				t.Fatal(err)
			}
			for _, pk := range policies {
				twins = append(twins, RunConfig{Workload: wl, Policy: pk, PercentCO: 30, Hints: hints, Mem: mem, Shrink: shrink})
			}
		}
	}
	twinRes, err := e.Map(twins)
	if err != nil {
		t.Fatal(err)
	}
	var capped []RunConfig
	for _, twin := range twins {
		for _, f := range fig4Fracs {
			rc := twin
			rc.BOCapacityFrac = f
			capped = append(capped, rc)
		}
	}
	res, err := e.Map(capped)
	if err != nil {
		t.Fatal(err)
	}

	mig := migrate.DefaultConfig()
	binding := map[string]bool{}
	unreached := 0
	for i, rc := range capped {
		twin := twinRes[i/len(fig4Fracs)]
		name := rc.Workload + "/" + policyLabel(rc) + "/" + rc.Mem.Zones[0].Name
		same := bytes.Equal(resultJSON(t, res[i]), resultJSON(t, twin))
		switch {
		case capUnreached(rc, twin):
			unreached++
			if !same {
				t.Errorf("%s at %.0f%%: cap called unreached, but the result differs from the uncapped run", name, rc.BOCapacityFrac*100)
			}
		case same:
			t.Errorf("%s at %.0f%%: cap called binding, but the result equals the uncapped run", name, rc.BOCapacityFrac*100)
		default:
			binding[rc.Workload] = true
		}
		orc, migRC := rc, rc
		orc.Policy = OraclePolicy
		migRC.Migration = &mig
		if capUnreached(orc, twin) || capUnreached(migRC, twin) {
			t.Errorf("%s at %.0f%%: an ORACLE or migration config qualified for reuse", name, rc.BOCapacityFrac*100)
		}
	}
	for _, wl := range wls {
		if !binding[wl] {
			t.Errorf("%s: no binding fraction changed the result", wl)
		}
	}
	t.Logf("%d of %d capped configs unreached", unreached, len(capped))
}

// TestLocalKeyUntouchedPools: a LOCAL run whose local pool is uncapped,
// with no migration and no CPU co-traffic, keeps only that pool in its
// cache identity. k40-ddr4, cxl-expansion and k40-ddr4 with the CO pool at
// 5 or 200 GB/s share one key and simulate byte-identically; a CO pool at
// 400 GB/s (it becomes the local pool), a BO cap, CPU co-traffic,
// migration and gh200 (whose HBM3 pool is capacity-capped) each keep a key
// of their own.
func TestLocalKeyUntouchedPools(t *testing.T) {
	k40 := presetMem(t, "k40-ddr4")
	local := func(mem memsys.Config) RunConfig {
		return RunConfig{Workload: "bfs", Policy: LocalPolicy, Mem: mem, Shrink: 16}
	}
	withCO := func(gbps float64) RunConfig {
		mem := k40.Clone()
		mem.SetZoneBandwidthGBps(vm.ZoneCO, gbps)
		return local(mem)
	}
	shared := []RunConfig{local(k40), local(presetMem(t, "cxl-expansion")), withCO(5), withCO(200)}
	capped, cpu, mig := local(k40), local(k40), local(k40)
	capped.BOCapacityFrac = 0.5
	cpu.CPUTrafficGBps = 20
	migCfg := migrate.DefaultConfig()
	mig.Migration = &migCfg
	distinct := map[string]RunConfig{
		"co-400": withCO(400), "bo-cap": capped, "cpu-traffic": cpu,
		"migration": mig, "gh200": local(presetMem(t, "gh200")),
	}

	want, _ := ConfigKey(shared[0])
	first, err := Run(shared[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, rc := range shared[1:] {
		if k, _ := ConfigKey(rc); k != want {
			t.Errorf("shared config %d: key %s, want %s", i+1, k, want)
		}
		res, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resultJSON(t, res), resultJSON(t, first)) {
			t.Errorf("shared config %d simulates differently from k40-ddr4", i+1)
		}
	}
	seen := map[string]string{want: "k40-ddr4"}
	for name, rc := range distinct {
		k, _ := ConfigKey(rc)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s shares key %s with %s", name, k, prev)
		}
		seen[k] = name
	}
}

// TestFigureReuseCounts pins how many simulations fig4 and fig5 execute
// at Shrink 8 on {bfs, lbm} against a fresh cache, and the digests of
// their CSVs, which were recorded from simulating every cell: fig4
// simulates its two baselines and only the five fractions a baseline
// filled, and fig5's six LOCAL runs per workload share one key, so five
// of them are cache hits.
func TestFigureReuseCounts(t *testing.T) {
	for _, c := range []struct {
		id         string
		runs, hits int
		csv        string
	}{
		{"fig4", 7, 0, "12886aa18eb8e9a1ce5dec35ed88dec0f0acd1468962815f692ab8753e1eb74a"},
		{"fig5", 26, 10, "f182db9e40fd517dfc664f896fff84a6bdd5d75384b9fa5746d743dc6fc31379"},
	} {
		fn, _ := ByID(c.id)
		fig, err := fn(Options{Workloads: []string{"bfs", "lbm"}, Shrink: 8, Cache: NewResultCache()})
		if err != nil {
			t.Fatal(err)
		}
		if fig.Sweep.Runs != c.runs || fig.Sweep.CacheHits != c.hits {
			t.Errorf("%s: %d runs, %d cache hits; want %d and %d", c.id, fig.Sweep.Runs, fig.Sweep.CacheHits, c.runs, c.hits)
		}
		sum := sha256.Sum256([]byte(fig.Table.CSV()))
		if got := hex.EncodeToString(sum[:]); got != c.csv {
			t.Errorf("%s: CSV digest %s, want %s", c.id, got, c.csv)
		}
	}
}
