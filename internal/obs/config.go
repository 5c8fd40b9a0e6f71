// Package obs is the in-run flight recorder: it samples simulator state on
// a fixed simulated-time grid into a preallocated ring buffer, so a run's
// temporal dynamics — pool bandwidth utilization and occupancy, migration
// activity, write-back pressure, MSHR backpressure — can be dumped,
// streamed, or merged into a Perfetto timeline after (or during) the run.
//
// The recorder samples from a sim.World window hook, which runs at every
// window edge. The window grid is the earliest pending time plus the
// lookahead step, a function of the schedule alone (see internal/sim), so
// a probed run produces the same series every time. When no probe is
// attached nothing is registered and the simulator hot path is untouched:
// disabling costs zero branches, not a predicted-not-taken one.
package obs

import (
	"fmt"
	"path/filepath"
	"strings"

	"hetsim/internal/kvspec"
	"hetsim/internal/sim"
)

// Config selects what a probe records and where a CLI writes it.
type Config struct {
	// Interval is the sampling grid step in simulated cycles. Samples are
	// stamped on multiples of Interval; each is taken at the first window
	// edge at or after its grid point.
	Interval sim.Time
	// MaxSamples caps the ring buffer. When a run outlives the ring the
	// oldest samples are overwritten and reported as dropped.
	MaxSamples int
	// Out is the client-side dump path ("" prints a summary instead). The
	// daemon rejects it: probe output streams over /progress there.
	Out string
	// Format is "json" or "csv"; "" infers from Out's extension (default
	// json).
	Format string
}

// DefaultConfig returns the `-probe on` settings.
func DefaultConfig() Config {
	return Config{Interval: 5000, MaxSamples: 4096}
}

// Validate rejects configurations the recorder cannot honor.
func (c Config) Validate() error {
	switch {
	case c.Interval < 1:
		return fmt.Errorf("obs: Interval %d, must be >= 1 cycle", c.Interval)
	case c.MaxSamples < 2:
		return fmt.Errorf("obs: MaxSamples %d, must be >= 2 (baseline + final)", c.MaxSamples)
	case c.MaxSamples > 1<<20:
		return fmt.Errorf("obs: MaxSamples %d, must be <= %d", c.MaxSamples, 1<<20)
	}
	switch c.Format {
	case "", FormatJSON, FormatCSV:
	default:
		return fmt.Errorf("obs: format %q, must be %q or %q", c.Format, FormatJSON, FormatCSV)
	}
	return nil
}

// Probe output formats.
const (
	FormatJSON = "json"
	FormatCSV  = "csv"
)

// EffectiveFormat resolves Format against Out's extension.
func (c Config) EffectiveFormat() string {
	if c.Format != "" {
		return c.Format
	}
	if strings.EqualFold(filepath.Ext(c.Out), ".csv") {
		return FormatCSV
	}
	return FormatJSON
}

// ParseSpec parses the -probe / ?probe= value, shared by every surface
// (grammar: internal/kvspec):
//
//	""                                  -> (nil, nil)   probe off
//	"off" | "none" | "false" | "0"      -> (nil, nil)   probe off
//	"on" | "default" | "true" | "1"     -> defaults
//	"interval=20000,samples=1024,out=run.csv,format=csv"
//
// Keys: interval (cycles), samples (ring capacity), out (dump path),
// format (json|csv). Unknown keys and invalid values are errors, as is a
// configuration that fails Validate.
func ParseSpec(s string) (*Config, error) {
	cfg := DefaultConfig()
	on, err := kvspec.Parse("obs: probe spec", s, func(key, val string) error {
		var err error
		switch key {
		case "interval":
			err = kvspec.Int(val, func(n int64) { cfg.Interval = sim.Time(n) })
		case "samples":
			err = kvspec.Int(val, func(n int64) { cfg.MaxSamples = int(n) })
		case "out":
			cfg.Out = val
		case "format":
			cfg.Format = val
		default:
			return fmt.Errorf("obs: unknown probe spec key %q (keys: interval, samples, out, format)", key)
		}
		if err != nil {
			return fmt.Errorf("obs: probe spec %w", err)
		}
		return nil
	})
	if err != nil || !on {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Spec renders the canonical round-trippable form of c.
func (c Config) Spec() string {
	var b strings.Builder
	fmt.Fprintf(&b, "interval=%d,samples=%d", c.Interval, c.MaxSamples)
	if c.Out != "" {
		fmt.Fprintf(&b, ",out=%s", c.Out)
	}
	if c.Format != "" {
		fmt.Fprintf(&b, ",format=%s", c.Format)
	}
	return b.String()
}
