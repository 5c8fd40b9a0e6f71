package core

import (
	"fmt"
	"math/rand"
	"sort"

	"hetsim/internal/vm"
)

// Hint is a programmer-supplied placement preference for one allocation,
// the abstract, machine-independent hint of §5.2 ("BO or CO optimized
// memory, or ... the bandwidth-aware allocator").
type Hint uint8

// Placement hints.
const (
	HintNone Hint = iota // no annotation: policy default applies
	HintBO               // prefer bandwidth-optimized memory
	HintCO               // prefer capacity-optimized memory
	HintBW               // explicitly request BW-AWARE spreading
)

func (h Hint) String() string {
	switch h {
	case HintNone:
		return "none"
	case HintBO:
		return "BO"
	case HintCO:
		return "CO"
	case HintBW:
		return "BW"
	default:
		return fmt.Sprintf("Hint(%d)", uint8(h))
	}
}

// Request carries the information available to a policy when a page is
// allocated: which virtual page, which allocation (data structure) it
// belongs to, and any annotation hint attached to that allocation.
type Request struct {
	VPage uint64
	Alloc int // allocation ordinal; -1 when unknown
	Hint  Hint
}

// Policy chooses a preferred zone for each newly allocated page. Policies
// are pure preference: capacity fallback is applied by Placer, mirroring
// the kernel's mempolicy/zone-fallback split.
type Policy interface {
	Name() string
	Place(req Request) vm.ZoneID
}

// Local is Linux's default LOCAL policy: allocate from the local NUMA zone
// of the executing processor — for a GPU process, the GPU-attached BO zone
// — spilling elsewhere only on capacity pressure (handled by Placer).
type Local struct {
	// Zone is the local zone; for GPU processes this is vm.ZoneBO.
	Zone vm.ZoneID
}

// Name implements Policy.
func (Local) Name() string { return "LOCAL" }

// Place implements Policy.
func (l Local) Place(Request) vm.ZoneID { return l.Zone }

// Interleave is Linux's INTERLEAVE policy: strict round-robin across zones,
// which balances page counts but over-subscribes slow zones in
// bandwidth-asymmetric systems (§3.2.2 shows it losing to BW-AWARE by 35%).
type Interleave struct {
	zones int
	next  int
}

// NewInterleave round-robins over the first zones zone IDs.
func NewInterleave(zones int) *Interleave {
	if zones <= 0 {
		panic(fmt.Sprintf("core: NewInterleave(%d): need at least one zone", zones))
	}
	return &Interleave{zones: zones}
}

// Name implements Policy.
func (*Interleave) Name() string { return "INTERLEAVE" }

// Place implements Policy.
func (p *Interleave) Place(Request) vm.ZoneID {
	z := vm.ZoneID(p.next)
	p.next = (p.next + 1) % p.zones
	return z
}

// Ratio is the xC-yB fixed-split policy used in the Figure 3 sweep: place
// PercentCO% of pages in CO and the rest in BO, by random draw. It is the
// paper's implementation strategy verbatim: "On any new physical page
// allocation, a random number in the range [0, 99] is generated. If this
// number is >= x, the page is allocated from the bandwidth-optimized
// memory" (§3.2.2). Ratio{PercentCO: 0} is LOCAL-like (all BO);
// Ratio{PercentCO: 50} matches INTERLEAVE's balance in expectation.
type Ratio struct {
	PercentCO int
	BO, CO    vm.ZoneID
	Rand      *rand.Rand
}

// NewRatioZones returns an xC-yB policy with a deterministic seed over a
// zone pair: bo receives the (100-percentCO)% share and co the rest.
// percentCO must be in [0,100]. In an N-pool topology the caller picks the
// fastest and slowest pools (the x:y split is inherently two-valued;
// BW-AWARE is the K-pool generalization).
func NewRatioZones(percentCO int, seed int64, bo, co vm.ZoneID) *Ratio {
	if percentCO < 0 || percentCO > 100 {
		panic(fmt.Sprintf("core: NewRatioZones(%d): percent outside [0,100]", percentCO))
	}
	return &Ratio{PercentCO: percentCO, BO: bo, CO: co, Rand: rand.New(rand.NewSource(seed))}
}

// Name implements Policy.
func (r *Ratio) Name() string {
	return fmt.Sprintf("%dC-%dB", r.PercentCO, 100-r.PercentCO)
}

// Place implements Policy.
func (r *Ratio) Place(Request) vm.ZoneID {
	// The paper notes LOCAL can skip the comparison when either share is
	// zero; we keep those fast paths for exactness at the extremes.
	switch r.PercentCO {
	case 0:
		return r.BO
	case 100:
		return r.CO
	}
	if r.Rand.Intn(100) >= r.PercentCO {
		return r.BO
	}
	return r.CO
}

// BWAware is the paper's MPOL_BWAWARE policy: place pages across all zones
// in proportion to their aggregate bandwidths, as read from the SBIT. For
// the Table 1 system this converges to the 30C-70B split (precisely
// 28C-72B). It generalizes to any number of zones.
type BWAware struct {
	sbit   SBIT
	zones  []vm.ZoneID
	shares []float64 // cumulative bandwidth shares, aligned with zones
	rng    *rand.Rand
}

// NewBWAware builds the policy from an SBIT with a deterministic seed.
func NewBWAware(sbit SBIT, seed int64) *BWAware {
	if err := sbit.Validate(); err != nil {
		panic(err)
	}
	total := sbit.TotalBandwidth()
	zones := make([]vm.ZoneID, len(sbit.ZoneInfos))
	shares := make([]float64, len(sbit.ZoneInfos))
	cum := 0.0
	for i, zi := range sbit.ZoneInfos {
		cum += zi.BandwidthGBps / total
		zones[i] = zi.Zone
		shares[i] = cum
	}
	shares[len(shares)-1] = 1.0 // guard against float drift
	return &BWAware{sbit: sbit, zones: zones, shares: shares, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Policy.
func (*BWAware) Name() string { return "BW-AWARE" }

// Place implements Policy.
func (p *BWAware) Place(Request) vm.ZoneID {
	r := p.rng.Float64()
	for i, cum := range p.shares {
		if r < cum {
			return p.zones[i]
		}
	}
	return p.zones[len(p.zones)-1]
}

// Share exposes the target fraction for zone z (for tests and reporting).
func (p *BWAware) Share(z vm.ZoneID) float64 { return p.sbit.Share(z) }

// Oracle replays a precomputed per-page assignment built from perfect
// knowledge of page access frequency (§4.2's two-phase simulation). Build
// assignments with BuildOracleAssignmentZones.
type Oracle struct {
	Assignment []vm.ZoneID
	// Default is used for pages beyond the assignment (should not happen
	// in a well-formed two-phase run, but keeps the policy total).
	Default vm.ZoneID
}

// Name implements Policy.
func (Oracle) Name() string { return "ORACLE" }

// Place implements Policy.
func (o Oracle) Place(req Request) vm.ZoneID {
	if req.VPage < uint64(len(o.Assignment)) {
		return o.Assignment[req.VPage]
	}
	return o.Default
}

// BuildOracleAssignmentZones implements the paper's oracle placement:
// "allocate the hottest pages possible into the bandwidth-optimized memory
// until the target bandwidth ratio is satisfied, or the capacity of this
// memory is exhausted" (§4.2), generalized to K pools. counts[vpage] is the
// profiled DRAM access count; zones lists the pools in fill order (fastest
// first), shares their bandwidth-service targets (SBIT.Share per zone,
// summing to ~1), and caps their page capacities (vm.Unlimited for none).
// Pages are sorted hottest first and poured into the current pool until
// its bandwidth target or capacity is met, then the next pool, with
// everything left assigned to the last pool.
func BuildOracleAssignmentZones(counts []uint64, zones []vm.ZoneID, shares []float64, caps []int) []vm.ZoneID {
	if len(zones) == 0 || len(zones) != len(shares) || len(zones) != len(caps) {
		panic(fmt.Sprintf("core: BuildOracleAssignmentZones: %d zones, %d shares, %d caps",
			len(zones), len(shares), len(caps)))
	}
	n := len(counts)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Sort hottest first; stable tie-break on page number for determinism.
	sort.SliceStable(order, func(i, j int) bool { return counts[order[i]] > counts[order[j]] })

	var total uint64
	for _, c := range counts {
		total += c
	}
	targets := make([]uint64, len(zones))
	for i, s := range shares {
		targets[i] = uint64(s * float64(total))
	}

	last := len(zones) - 1
	assign := make([]vm.ZoneID, n)
	for i := range assign {
		assign[i] = zones[last]
	}
	k := 0            // current pool being filled
	var used int      // pages placed in pool k
	var served uint64 // access count served by pool k
	for _, p := range order {
		for k < last && ((caps[k] != vm.Unlimited && used >= caps[k]) || served >= targets[k]) {
			k++
			used, served = 0, 0
		}
		if k == last {
			break // remaining pages keep the default (last zone)
		}
		assign[p] = zones[k]
		used++
		served += counts[p]
	}
	return assign
}

// Hinted honors per-allocation annotations: HintBO/HintCO pin the
// allocation's pages, HintBW and HintNone defer to an underlying BW-AWARE
// (or other) policy, matching §5.2's runtime semantics. It stands in for
// §5.2's mbind call: gpurt.Malloc records the hint on the allocation, and
// each page's placement reads it there.
type Hinted struct {
	// Fallback handles HintBW and HintNone requests.
	Fallback Policy
	BO, CO   vm.ZoneID
}

// NewHintedZones wraps fallback (typically a BWAware) with hint handling:
// HintBO pins to bo, HintCO to co. In an N-pool topology the caller passes
// the fastest and slowest pools (hints name the extremes; everything
// between is the fallback policy's business).
func NewHintedZones(fallback Policy, bo, co vm.ZoneID) *Hinted {
	return &Hinted{Fallback: fallback, BO: bo, CO: co}
}

// Name implements Policy.
func (*Hinted) Name() string { return "ANNOTATED" }

// Place implements Policy.
func (h *Hinted) Place(req Request) vm.ZoneID {
	switch req.Hint {
	case HintBO:
		return h.BO
	case HintCO:
		return h.CO
	default:
		return h.Fallback.Place(req)
	}
}
