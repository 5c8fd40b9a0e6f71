package tune

import "sort"

// A strategy is successive halving (eta = 2) with a preferred rung count:
// start from a seeded sample of the space, evaluate every survivor at a
// coarse fidelity, keep the better half, double the fidelity, repeat — the
// final rung runs at the problem's target fidelity. Cheap rungs discard
// the bulk of the space for a fraction of a full evaluation each, so a
// given budget explores roughly twice the candidates of a one-rung search.
// grid is the one-rung baseline: every sampled candidate evaluated once at
// final fidelity, best perf wins. It covers budget candidates where
// halving covers ~2x as many — the comparison figtune's notes quantify.
// A search is a deterministic function of (space, budget, seed) — no wall
// clock, no unseeded randomness — so it is reproducible bit-for-bit
// anywhere.
var strategies = []struct {
	name  string
	rungs int
}{{"grid", 1}, {"halving", 3}}

// Strategies lists the built-in strategy names.
func Strategies() []string {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		names[i] = s.name
	}
	return names
}

// Known reports whether name is a built-in strategy ("" selects the
// default, halving).
func Known(name string) bool { return name == "" || rungsOf(name) > 0 }

// rungsOf is the preferred rung count of a strategy, 0 if it is unknown.
func rungsOf(name string) int {
	for _, s := range strategies {
		if s.name == name {
			return s.rungs
		}
	}
	return 0
}

// halvingCost is the total evaluation count of starting n0 candidates
// through r halving rungs.
func halvingCost(n0, r int) int {
	total, n := 0, n0
	for i := 0; i < r; i++ {
		total += n
		n = keepCount(n)
	}
	return total
}

func keepCount(n int) int {
	if n <= 1 {
		return 1
	}
	return n / 2
}

// search runs successive halving over space within the eval budget and
// returns the index (into space) of the winner. Small budgets shed rungs
// until even a single survivor chain (one eval per rung) fits. Ties go to
// the lower space index.
func search(ev *Evaluator, space []Params, budget, rungs int) (int, error) {
	for rungs > 1 && halvingCost(1, rungs) > budget {
		rungs--
	}
	// The widest starting cohort whose full halving schedule fits the
	// budget.
	n0 := 1
	for n := 2; n <= len(space); n++ {
		if halvingCost(n, rungs) > budget {
			break
		}
		n0 = n
	}

	idxs := sample(n0, len(space), ev.p.Seed)
	for r := 0; r < rungs; r++ {
		shrink := ev.p.Shrink << (rungs - 1 - r) // the last rung at the target fidelity
		cands := make([]Params, len(idxs))
		for i, si := range idxs {
			cands[i] = space[si]
		}
		perfs, offset, err := ev.Eval(r, shrink, cands)
		if err != nil {
			return 0, err
		}
		// Rank positions by measured perf, ties broken by the candidate's
		// space index — a total, deterministic order.
		order := make([]int, len(idxs))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			pa, pb := order[a], order[b]
			if perfs[pa] != perfs[pb] {
				return perfs[pa] > perfs[pb]
			}
			return idxs[pa] < idxs[pb]
		})
		keep := keepCount(len(idxs))
		if r == rungs-1 {
			keep = 1
		}
		next := make([]int, 0, keep)
		for _, pos := range order[:keep] {
			ev.Keep(offset + pos)
			next = append(next, idxs[pos])
		}
		sort.Ints(next) // survivors re-enter the next rung in space order
		idxs = next
	}
	return idxs[0], nil
}
