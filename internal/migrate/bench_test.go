package migrate

import (
	"fmt"
	"testing"

	"hetsim/internal/sim"
	"hetsim/internal/vm"
)

// epochFixture builds an engine over buildTiered's three pools (capped by
// caps) with pages spread over the two lower tiers, so the fastest pool
// starts empty, and returns a fixed skewed per-epoch activity pattern.
func epochFixture(tb testing.TB, policy string, pages int, caps map[vm.ZoneID]int) (*Engine, *sim.Engine, []uint64) {
	tb.Helper()
	eng, space, sys := buildTiered(tb, caps)
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.CooldownEpochs = 0
	m, err := New(eng, sys, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	order := m.Order()
	for vp := uint64(0); vp < uint64(pages); vp++ {
		if err := space.MapPage(vp, order[1+int(vp)%2]); err != nil {
			tb.Fatal(err)
		}
	}
	delta := make([]uint64, pages)
	for vp := range delta {
		delta[vp] = uint64(vp*7) % 37
	}
	return m, eng, delta
}

// BenchmarkMigrationEpoch measures one epoch pass of each classifier over
// a three-tier system: the page-table scan, the heap selection, and the
// (steady-state) move attempts. This is the per-epoch overhead a migration
// run adds on top of the simulation itself. 8192 pages is lbm's footprint.
func BenchmarkMigrationEpoch(b *testing.B) {
	for _, pages := range []int{4096, 8192} {
		for _, policy := range PolicyNames() {
			b.Run(fmt.Sprintf("%s/pages=%d", policy, pages), func(b *testing.B) {
				m, _, delta := epochFixture(b, policy, pages, nil)
				m.stats.Epochs++
				m.pass(delta) // the first pass sizes the scan and heap buffers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.stats.Epochs++
					m.pass(delta)
				}
			})
		}
	}
}
