// Cross-topology cache-key tests live here, in package pool_test, so they
// can import the experiments layer (which imports this package) without a
// cycle: the result cache this package implements is keyed by
// experiments.ConfigKey, and these tests pin the property the serving and
// cluster layers rely on — configs that differ only in memory topology
// must never collide on one cache entry.
package pool_test

import (
	"testing"

	"hetsim/internal/experiments"
	"hetsim/internal/memsys"
	"hetsim/internal/topology"
)

func key(t *testing.T, rc experiments.RunConfig) string {
	t.Helper()
	k, ok := experiments.ConfigKey(rc)
	if !ok {
		t.Fatalf("config unexpectedly uncacheable: %+v", rc)
	}
	return k
}

// TestTopologyCacheKeysDistinct: configs whose simulations can differ
// never collide. The same BW-AWARE run on different topology presets must
// hash to different cache keys, or a gh200 result could be served for a
// k40-ddr4 request from the shared (or persistent) cache.
func TestTopologyCacheKeysDistinct(t *testing.T) {
	base := experiments.RunConfig{Workload: "bfs", Policy: experiments.BWAwarePolicy, Shrink: 16}
	seen := map[string]string{}
	for _, name := range topology.Names() {
		topo, err := topology.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		rc := base
		rc.Mem = topo.MemsysConfig()
		k := key(t, rc)
		if prev, dup := seen[k]; dup {
			t.Errorf("presets %q and %q collided on cache key %s", prev, name, k)
		}
		seen[k] = name
	}
}

// TestK40KeyMatchesDefault: the other direction of the identity contract —
// an explicit k40-ddr4 config and the historical zero-Mem default are the
// same simulation and must share one cache entry.
func TestK40KeyMatchesDefault(t *testing.T) {
	base := experiments.RunConfig{Workload: "bfs", Policy: experiments.LocalPolicy, Shrink: 16}

	k40 := base
	topo, err := topology.Preset("k40-ddr4")
	if err != nil {
		t.Fatal(err)
	}
	k40.Mem = topo.MemsysConfig()

	table1 := base
	table1.Mem = memsys.Table1Config()

	def, explicit, t1 := key(t, base), key(t, k40), key(t, table1)
	if def != explicit {
		t.Errorf("k40-ddr4 key %s != default key %s", explicit, def)
	}
	if def != t1 {
		t.Errorf("Table1Config key %s != default key %s", t1, def)
	}
}
