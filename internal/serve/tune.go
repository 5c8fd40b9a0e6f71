package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"hetsim/internal/tune"
)

// TuneRequest is the body of POST /v1/tune: the tuning problem plus the
// search options the client controls. hmexp -tune builds one; every field
// is optional except the workload.
type TuneRequest struct {
	tune.Problem
	// Strategy names the search strategy ("" = "halving").
	Strategy string `json:"strategy,omitempty"`
	// Budget caps candidate evaluations (0 = the library default).
	Budget int `json:"budget,omitempty"`
	// Workers caps concurrent simulations (0 = the daemon's default). Like
	// the figure endpoint's ?workers=, it cannot change the result but
	// distinguishes submissions.
	Workers int `json:"workers,omitempty"`
}

// handleTune runs a policy-autotuning search synchronously: submissions
// are idempotent (keyed by the normalized problem + options), deduped onto
// in-flight searches, and executed on the job queue with the daemon's
// two-tier cache under every candidate evaluation — so a repeated or
// neighboring search is mostly cache hits. Bad specs (unknown workload,
// topology, dataset, strategy, out-of-range budget) are rejected with 422
// and an error naming the valid options, mirroring the migrate-spec
// grammar errors; malformed JSON gets 400.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req TuneRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding tune request: "+err.Error())
		return
	}
	if req.Workers < 0 {
		writeError(w, http.StatusUnprocessableEntity, "workers must be a non-negative integer")
		return
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.SimWorkers
	}
	opts := tune.Options{
		Strategy: req.Strategy, Budget: req.Budget, Workers: workers,
		Cache: s.cache, Remote: s.cfg.Remote,
	}
	if err := tune.Validate(req.Problem, opts); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	prob, err := req.Problem.Normalize()
	if err != nil { // unreachable after Validate; belt and braces
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}

	_, root := s.requestTrace(r, "rpc.tune")
	defer root.End()
	if root != nil {
		root.SetAttr("workload", prob.Workload)
	}
	key := tuneKey(prob, req.Strategy, req.Budget, workers)
	j, err := s.submit("tune", key, root, func(ctx context.Context, j *Job) error {
		rep, err := s.tune(ctx, j.rspan, prob, opts)
		if err != nil {
			return err
		}
		s.mu.Lock()
		j.Tune = &rep
		j.Sweep = rep.Sweep
		s.tuneRuns++
		s.tuneEvals += rep.Evals
		s.mu.Unlock()
		return nil
	})
	if err != nil {
		submitError(w, err)
		return
	}

	select {
	case <-r.Context().Done():
		// Client went away; the job finishes in the background and warms
		// the cache for the next request.
		return
	case <-j.done:
	}
	s.mu.Lock()
	state, errMsg, rep := j.State, j.Err, j.Tune
	s.mu.Unlock()
	switch state {
	case JobDone:
		writeJSON(w, http.StatusOK, rep)
	case JobCanceled:
		writeError(w, http.StatusServiceUnavailable, "job canceled during shutdown")
	default:
		writeError(w, http.StatusInternalServerError, errMsg)
	}
}

// tuneKey is the idempotency key of a tune submission: the sha256 of the
// normalized problem and the result-affecting options. Workers is included
// for the same reason figureKey includes it — distinct submissions, and a
// lever to force a re-run.
func tuneKey(p tune.Problem, strategy string, budget, workers int) string {
	if strategy == "" {
		strategy = tune.DefaultStrategy
	}
	if budget == 0 {
		budget = tune.DefaultBudget
	}
	desc := fmt.Sprintf("tune|%s|topology=%s|dataset=%s|capacity=%g|shrink=%d|seed=%d|strategy=%s|budget=%d|workers=%d",
		p.Workload, p.Topology, p.Dataset, p.CapacityFrac, p.Shrink, p.Seed,
		strategy, budget, workers)
	return hashString(desc)
}
