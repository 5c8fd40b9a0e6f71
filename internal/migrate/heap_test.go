package migrate

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// randomCandidates returns n candidates on distinct pages, in random order,
// with heats drawn from [0, heats): a small range makes most heats tie, so
// the page-number tie break decides most of the order.
func randomCandidates(rng *rand.Rand, n, heats int) []pageHeat {
	pages := rng.Perm(2*n + 1)
	ps := make([]pageHeat, n)
	for i := range ps {
		ps[i] = pageHeat{vpage: uint64(pages[i]), heat: uint64(rng.Intn(heats))}
	}
	return ps
}

// checkHeapMatchesSort pops the first k of ps through a heatHeap in both
// directions and compares them with the first k of a full sort on
// (heat, vpage).
func checkHeapMatchesSort(t *testing.T, h *heatHeap, ps []pageHeat, k int) {
	t.Helper()
	for _, hot := range []bool{true, false} {
		ref := slices.Clone(ps)
		slices.SortFunc(ref, func(a, b pageHeat) int {
			if c := cmp.Compare(a.heat, b.heat); c != 0 {
				if hot {
					return -c
				}
				return c
			}
			return cmp.Compare(a.vpage, b.vpage)
		})
		h.reset(hot)
		for _, p := range ps {
			h.push(p.vpage, p.heat)
		}
		h.init()
		for i := 0; i < k; i++ {
			if got := h.peek(); got != ref[i] {
				t.Fatalf("hot=%v n=%d: peek %d = %+v, want %+v", hot, len(ps), i, got, ref[i])
			}
			if got := h.pop(); got != ref[i] {
				t.Fatalf("hot=%v n=%d: pop %d = %+v, want %+v", hot, len(ps), i, got, ref[i])
			}
		}
		if h.len() != len(ps)-k {
			t.Fatalf("hot=%v: %d left after %d pops of %d", hot, h.len(), k, len(ps))
		}
	}
}

// The epoch's heaps must pop candidates in exactly the order the full sort
// they replace produced, or migration plans (and every output byte) move.
func TestHeatHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h heatHeap // reused throughout, as the engine reuses its heaps
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 10000} {
		for _, heats := range []int{1, 3, 100} {
			ps := randomCandidates(rng, n, heats)
			for _, k := range []int{0, 1, n / 3, n} {
				checkHeapMatchesSort(t, &h, ps, min(k, n))
			}
		}
	}
}

func FuzzHeatHeap(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(1), uint16(0))
	f.Add(int64(2), uint16(100), uint8(4), uint16(10))
	f.Add(int64(3), uint16(10000), uint8(2), uint16(10000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, heats uint8, k uint16) {
		size := int(n) % 10001
		ps := randomCandidates(rand.New(rand.NewSource(seed)), size, max(int(heats), 1))
		var h heatHeap
		checkHeapMatchesSort(t, &h, ps, int(k)%(size+1))
	})
}
