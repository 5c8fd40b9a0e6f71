package experiments

import (
	"fmt"
	"io"

	"hetsim/internal/trace"
)

// Tracing integration: Run can record the post-L1 access stream of any
// workload (RecordTrace), and RunTrace replays a recorded stream under any
// placement policy — capture once, evaluate many policies against the
// identical access sequence.

// RunTrace replays a trace under the given policy and system
// configuration. The trace is assembled into a simulation exactly as Run
// assembles a workload, so a replay honours everything rc describes: the
// memory topology (Mem) and its pool capacities, BOCapacityFrac, Lanes,
// Migration, EagerPlacement, CPU traffic, and an attached probe
// (WithProbe). The trace's address range is treated as a single anonymous
// allocation: annotation-based placement is the one exception (hints
// describe allocations, which a flat trace does not carry), but LOCAL,
// INTERLEAVE, ratio, BW-AWARE, and oracle all work. Replays are never
// cached; Result.Workload is "trace" and Result.Allocations is nil.
func RunTrace(events []trace.Event, rc RunConfig, replay trace.ReplayConfig) (Result, error) {
	if len(events) == 0 {
		return Result{}, fmt.Errorf("experiments: empty trace")
	}
	if rc.Policy == HintedPolicy {
		return Result{}, fmt.Errorf("experiments: annotated placement needs allocations; traces have none")
	}
	if err := replay.Validate(); err != nil {
		return Result{}, err
	}
	rc.replay = &traceReplay{events: events, cfg: replay}
	return Run(rc)
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
