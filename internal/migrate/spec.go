package migrate

import (
	"cmp"
	"fmt"
	"math"
	"strconv"

	"hetsim/internal/kvspec"
	"hetsim/internal/sim"
)

// Spec strings are the CLI / HTTP surface of Config: the -migrate flag on
// hmexp and hmsim and the ?migrate= query parameter both accept
//
//	""            — migration disabled (also "off", "none", "false", "0")
//	"on"          — DefaultConfig (also "default", "true", "1")
//	"k=v,k=v,..." — DefaultConfig with overrides
//
// with keys policy, epoch, pages, lock, minheat, hyst, cooldown, alpha,
// high, low, wb. An empty policy value selects the default counter policy;
// float values must be finite. Config.Spec renders the canonical form back
// (every key, sorted), so equal configurations always produce equal
// strings — the serve layer folds it into figure cache keys.

// ParseSpec parses a migration spec string (grammar: internal/kvspec). It
// returns (nil, nil) when the spec disables migration, and a validated
// Config otherwise.
func ParseSpec(s string) (*Config, error) {
	cfg := DefaultConfig()
	on, err := kvspec.Parse("migrate: spec", s, func(k, val string) error {
		var err error
		switch k {
		case "policy":
			cfg.Policy = cmp.Or(val, PolicyCounter)
		case "epoch":
			err = kvspec.Int(val, func(n int64) { cfg.EpochCycles = sim.Time(n) })
		case "pages":
			err = kvspec.Int(val, func(n int64) { cfg.PagesPerEpoch = int(n) })
		case "lock":
			err = kvspec.Int(val, func(n int64) { cfg.LockCycles = sim.Time(n) })
		case "minheat":
			cfg.MinHeat, err = strconv.ParseUint(val, 10, 64)
		case "hyst":
			err = specFloat(val, func(f float64) { cfg.HysteresisFactor = f })
		case "cooldown":
			err = kvspec.Int(val, func(n int64) { cfg.CooldownEpochs = int(n) })
		case "alpha":
			err = specFloat(val, func(f float64) { cfg.EWMAAlpha = f })
		case "high":
			err = specFloat(val, func(f float64) { cfg.HighWatermark = f })
		case "low":
			err = specFloat(val, func(f float64) { cfg.LowWatermark = f })
		case "wb":
			err = kvspec.Int(val, func(n int64) { cfg.WriteBackPages = int(n) })
		default:
			return fmt.Errorf("migrate: unknown spec key %q", k)
		}
		if err != nil {
			return fmt.Errorf("migrate: bad value for %q: %w", k, err)
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

func specFloat(s string, set func(float64)) error {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("%q is not a finite number", s)
	}
	set(f)
	return nil
}

// Spec renders the canonical spec string for c: every key in a fixed
// order, so equal configurations render identically. ParseSpec(c.Spec())
// round-trips (MinHeat of a valid config is nonzero, so the string never
// collides with the disabled forms).
func (c Config) Spec() string {
	pol := c.Policy
	if pol == "" {
		pol = PolicyCounter
	}
	return fmt.Sprintf(
		"policy=%s,epoch=%d,pages=%d,lock=%d,minheat=%d,hyst=%s,cooldown=%d,alpha=%s,high=%s,low=%s,wb=%d",
		pol, c.EpochCycles, c.PagesPerEpoch, c.LockCycles, c.MinHeat,
		specG(c.HysteresisFactor), c.CooldownEpochs,
		specG(c.EWMAAlpha), specG(c.HighWatermark), specG(c.LowWatermark),
		c.WriteBackPages)
}

func specG(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
