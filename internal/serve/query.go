package serve

import (
	"errors"
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"hetsim/internal/experiments"
	"hetsim/internal/migrate"
)

// The figure query codec is the one place that reads or writes a figure
// request's run options: the shrink, workloads, workers, topology and
// migrate query parameters (figureParams). hmexp -server encodes with it,
// handleFigure decodes with it, and figureKey hashes the encoding of the
// decoded options.

// figureParams are the codec's query parameters, in encoding order.
var figureParams = []string{"migrate", "shrink", "topology", "workers", "workloads"}

// EncodeFigureQuery renders the figure-request options of o as a query
// string: keys in sorted order, each present only when its value differs
// from the default (Shrink above 1, Workers above 0, non-empty strings).
// For options returned by decodeFigureQuery the string is canonical:
// decoding it again yields the same options.
func EncodeFigureQuery(o experiments.Options) string {
	var b strings.Builder
	b.Grow(128) // one allocation for a typical query; figureKey runs it per request
	queryParam(&b, "migrate", o.Migrate)
	if o.Shrink > 1 {
		queryParam(&b, "shrink", strconv.Itoa(o.Shrink))
	}
	queryParam(&b, "topology", o.Topology)
	if o.Workers > 0 {
		queryParam(&b, "workers", strconv.Itoa(o.Workers))
	}
	queryParam(&b, "workloads", strings.Join(o.Workloads, ","))
	return b.String()
}

func queryParam(b *strings.Builder, key, val string) {
	if val == "" {
		return
	}
	if b.Len() > 0 {
		b.WriteByte('&')
	}
	b.WriteString(key)
	b.WriteByte('=')
	b.WriteString(url.QueryEscape(val))
}

// decodeFigureQuery overlays the figure-request parameters of q on base,
// the daemon's defaults, and checks the result with
// experiments.Options.Validate, so a request with bad options is refused
// before any job is queued. An empty parameter keeps the default. A
// parameter outside the codec is refused by name, so a misspelled or
// unsupported option is not answered with a figure the client did not
// ask for. The migrate spec is returned in its canonical form
// (migrate.Config.Spec; "" when it disables migration), so equivalent
// spellings encode alike.
func decodeFigureQuery(q url.Values, base experiments.Options) (experiments.Options, error) {
	var unknown []string
	for k := range q {
		if !slices.Contains(figureParams, k) {
			unknown = append(unknown, strconv.Quote(k))
		}
	}
	var errUnknown error
	if len(unknown) > 0 {
		slices.Sort(unknown)
		errUnknown = fmt.Errorf("unknown parameters %s (have %s)", strings.Join(unknown, ", "), strings.Join(figureParams, " "))
	}
	o := base
	errShrink := intParam(q, "shrink", &o.Shrink)
	errWorkers := intParam(q, "workers", &o.Workers)
	if v := q.Get("workloads"); v != "" {
		o.Workloads = strings.Split(v, ",")
	}
	o.Topology, o.Migrate = q.Get("topology"), q.Get("migrate")
	if err := errors.Join(errUnknown, errShrink, errWorkers, o.Validate()); err != nil {
		return experiments.Options{}, err
	}
	if o.Migrate != "" {
		cfg, _ := migrate.ParseSpec(o.Migrate) // validated above
		o.Migrate = ""
		if cfg != nil {
			o.Migrate = cfg.Spec()
		}
	}
	return o, nil
}

func intParam(q url.Values, key string, dst *int) error {
	v := q.Get(key)
	if v == "" {
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("%s %q is not an integer", key, v)
	}
	*dst = n
	return nil
}
