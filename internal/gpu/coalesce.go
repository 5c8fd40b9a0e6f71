package gpu

import "sort"

// Coalesce merges the per-lane byte addresses of one warp memory
// instruction into the minimal set of line-sized transactions, exactly as
// a GPU's coalescing unit does: lanes touching the same line share one
// transaction; divergent lanes fan out into many. lineBytes must be a
// power of two.
//
// The returned addresses are the unique line base addresses in ascending
// order. A fully-coalesced warp (all lanes in one line) returns one
// transaction; a fully-divergent gather returns one per lane.
func Coalesce(laneAddrs []uint64, lineBytes uint64) []uint64 {
	if len(laneAddrs) == 0 {
		return nil
	}
	mask := ^(lineBytes - 1)
	lines := make([]uint64, 0, len(laneAddrs))
	for _, a := range laneAddrs {
		lines = append(lines, a&mask)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	out := lines[:1]
	for _, l := range lines[1:] {
		if l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	return out
}
