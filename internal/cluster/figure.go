package cluster

import (
	"encoding/json"
	"fmt"

	"hetsim/internal/experiments"
	"hetsim/internal/serve"
)

// Figure reproduces a named figure with its simulations sharded across the
// fleet: the figure's own sweep code builds the config grid exactly as a
// local run would, the distributed executor offers each cache-missing
// config to the coordinator, and the pool merge reassembles results at the
// index of their config regardless of which worker (or the local fallback)
// produced them. Unless opts.Cache is set, results land in a
// coordinator-private cache rather than the process-wide one.
func (c *Coordinator) Figure(id string, opts experiments.Options) (experiments.Figure, error) {
	fn, ok := experiments.ByID(id)
	if !ok {
		return experiments.Figure{}, fmt.Errorf("cluster: unknown figure %q", id)
	}
	opts.Remote = c.Run
	if opts.Cache == nil {
		opts.Cache = c.cache
	}
	return fn(opts)
}

// EncodeFigure renders a figure into the serving layer's canonical
// timing-free encoding — the byte string the cluster's consistency
// guarantee is stated over. It is identical for a given figure and options
// no matter where (or whether) the simulations ran.
func EncodeFigure(fig experiments.Figure) ([]byte, error) {
	return json.Marshal(serve.NewFigureResult(fig))
}
