package experiments

import (
	"fmt"
	"io"

	"hetsim/internal/core"
	"hetsim/internal/gpu"
	"hetsim/internal/memsys"
	"hetsim/internal/sim"
	"hetsim/internal/trace"
	"hetsim/internal/vm"
)

// Tracing integration: Run can record the post-L1 access stream of any
// workload (set RunConfig.TraceWriter), and RunTrace replays a recorded
// stream under any placement policy — capture once, evaluate many
// policies against the identical access sequence.

// RunTrace replays a trace under the given policy and system
// configuration. The trace's address range is treated as a single
// anonymous allocation: annotation-based policies are not applicable
// (hints describe allocations, which a flat trace does not carry), but
// LOCAL, INTERLEAVE, ratio, BW-AWARE, and oracle all work.
func RunTrace(events []trace.Event, rc RunConfig, replay trace.ReplayConfig) (Result, error) {
	if len(events) == 0 {
		return Result{}, fmt.Errorf("experiments: empty trace")
	}
	if rc.Policy == HintedPolicy {
		return Result{}, fmt.Errorf("experiments: annotated placement needs allocations; traces have none")
	}
	memCfg := rc.Mem
	if len(memCfg.Zones) == 0 {
		memCfg = memsys.Table1Config()
	}
	gpuCfg := rc.GPU
	if gpuCfg.SMs == 0 {
		gpuCfg = gpu.Table1Config()
	}
	sbit := SBITFor(memCfg)
	pageSize := rc.PageSize
	if pageSize == 0 {
		pageSize = vm.DefaultPageSize
	}

	var maxVA uint64
	for _, e := range events {
		if e.VA > maxVA {
			maxVA = e.VA
		}
	}
	footPages := int(maxVA/pageSize) + 1
	boPages := vm.Unlimited
	if rc.BOCapacityFrac > 0 && rc.BOCapacityFrac < 1e9 {
		boPages = int(rc.BOCapacityFrac*float64(footPages) + 0.5)
		if boPages < 1 {
			boPages = 1
		}
	}
	space := vm.NewSpace(pageSize, []vm.ZoneConfig{
		{Name: "BO", CapacityPages: boPages},
		{Name: "CO", CapacityPages: vm.Unlimited},
	})
	seed := rc.Seed
	if seed == 0 {
		seed = 42
	}
	policy, err := buildPolicy(rc, sbit, seed)
	if err != nil {
		return Result{}, err
	}
	placer := core.NewPlacer(space, policy, sbit)

	eng := sim.New()
	mem, err := memsys.New(eng, space, memCfg)
	if err != nil {
		return Result{}, err
	}
	mem.FaultHandler = func(vpage uint64) error {
		_, err := placer.PlacePage(core.Request{VPage: vpage, Alloc: -1})
		return err
	}
	progs, err := trace.Programs(events, replay)
	if err != nil {
		return Result{}, err
	}
	g := gpu.New(eng, mem, gpuCfg)
	g.Launch(progs)
	cycles := g.Run()
	if cycles == 0 {
		cycles = 1
	}
	st := mem.Stats()
	return Result{
		Workload:   "trace",
		Policy:     policyLabel(rc),
		Cycles:     cycles,
		Perf:       float64(len(events)) / float64(cycles) * 1000,
		Accesses:   st.Accesses,
		BOServed:   mem.ZoneServiceFraction(vm.ZoneBO),
		PageCounts: append([]uint64(nil), mem.PageCounts()...),
		Mem:        st,
		EnergyNJ:   mem.TotalEnergyNJ(),
		Place:      placer.Stats(),
		GPUStats:   g.Stats(),
		Footprint:  uint64(footPages) * pageSize,
	}, nil
}

// RecordTrace runs a workload while writing its post-L1 access stream to
// w (the recorder taps the GPU-to-memory-system interface, so the event
// count equals the run's L1 misses plus writes). It returns the run result
// and the number of events recorded. Recording does not perturb the
// simulation: the result is identical to Run's for the same config.
func RecordTrace(rc RunConfig, w io.Writer) (Result, uint64, error) {
	tw := trace.NewWriter(w)
	rc.traceWriter = tw
	res, err := Run(rc)
	if err != nil {
		return Result{}, 0, err
	}
	if err := tw.Flush(); err != nil {
		return Result{}, 0, err
	}
	return res, tw.Count(), nil
}
