package migrate

import (
	"strings"
	"testing"
)

func TestParseSpecDisabledForms(t *testing.T) {
	for _, s := range []string{"", "off", "none", "false", "0", "  OFF  "} {
		cfg, err := ParseSpec(s)
		if err != nil {
			t.Errorf("ParseSpec(%q) error: %v", s, err)
		}
		if cfg != nil {
			t.Errorf("ParseSpec(%q) = %+v, want nil (disabled)", s, cfg)
		}
	}
}

func TestParseSpecEnabledForms(t *testing.T) {
	def := DefaultConfig()
	for _, s := range []string{"on", "default", "true", "1"} {
		cfg, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q) error: %v", s, err)
		}
		if cfg == nil || *cfg != def {
			t.Errorf("ParseSpec(%q) = %+v, want defaults", s, cfg)
		}
	}
}

func TestParseSpecOverrides(t *testing.T) {
	cfg, err := ParseSpec("policy=ewma, epoch=1000, pages=4, alpha=0.25, high=0.8, low=0.5, wb=2")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != PolicyEWMA || cfg.EpochCycles != 1000 || cfg.PagesPerEpoch != 4 ||
		cfg.EWMAAlpha != 0.25 || cfg.HighWatermark != 0.8 || cfg.LowWatermark != 0.5 ||
		cfg.WriteBackPages != 2 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	// Untouched keys keep their defaults.
	if def := DefaultConfig(); cfg.LockCycles != def.LockCycles || cfg.MinHeat != def.MinHeat {
		t.Fatalf("defaults clobbered: %+v", cfg)
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := map[string]string{
		"frobnicate=1":                 "unknown spec key",
		"epoch":                        "want key=value",
		"epoch=fast":                   "bad value",
		"minheat=0":                    "MinHeat",
		"policy=mystery":               "unknown policy",
		"cooldown=-1":                  "CooldownEpochs",
		"hyst=-0.5":                    "HysteresisFactor",
		"wb=-1":                        "WriteBackPages",
		"policy=ewma,alpha=1.5":        "EWMAAlpha",
		"policy=ewma,low=0.9,high=0.5": "watermarks",
		"policy=ewma,low=0":            "watermarks",
		"minheat=-1":                   "bad value",
		"hyst=NaN":                     "finite",
		"policy=ewma,alpha=nan":        "finite",
		"high=+Inf":                    "finite",
	}
	for spec, want := range cases {
		_, err := ParseSpec(spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ParseSpec(%q) error %q, want mention of %q", spec, err, want)
		}
	}
}

// Spec must render a canonical string that round-trips through ParseSpec
// and is identical for equal configs regardless of the Policy spelling
// ("" and "counter" are the same classifier).
func TestSpecRoundTrip(t *testing.T) {
	cfgs := []Config{DefaultConfig()}
	ewma := DefaultConfig()
	ewma.Policy = PolicyEWMA
	ewma.EWMAAlpha = 0.125
	cfgs = append(cfgs, ewma)
	for _, cfg := range cfgs {
		back, err := ParseSpec(cfg.Spec())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", cfg.Spec(), err)
		}
		if *back != cfg {
			t.Errorf("round trip %q changed config: %+v -> %+v", cfg.Spec(), cfg, *back)
		}
	}

	blank := DefaultConfig()
	blank.Policy = ""
	if blank.Spec() != DefaultConfig().Spec() {
		t.Errorf("empty policy renders %q, counter renders %q — must match",
			blank.Spec(), DefaultConfig().Spec())
	}
	// An empty policy value parses to the policy Spec renders for it.
	if c, err := ParseSpec("policy="); err != nil || c.Policy != PolicyCounter {
		t.Errorf(`ParseSpec("policy=") = %+v, %v; want the counter policy`, c, err)
	}
}

func TestKnownPolicy(t *testing.T) {
	for _, name := range append(PolicyNames(), "") {
		if !KnownPolicy(name) {
			t.Errorf("KnownPolicy(%q) = false", name)
		}
	}
	if KnownPolicy("mystery") {
		t.Error("KnownPolicy accepted an unknown name")
	}
}

func TestValidateStrict(t *testing.T) {
	mutations := map[string]func(*Config){
		"zero epoch":      func(c *Config) { c.EpochCycles = 0 },
		"zero pages":      func(c *Config) { c.PagesPerEpoch = 0 },
		"negative lock":   func(c *Config) { c.LockCycles = -1 },
		"zero minheat":    func(c *Config) { c.MinHeat = 0 },
		"negative hyst":   func(c *Config) { c.HysteresisFactor = -1 },
		"negative cool":   func(c *Config) { c.CooldownEpochs = -1 },
		"negative wb":     func(c *Config) { c.WriteBackPages = -1 },
		"unknown policy":  func(c *Config) { c.Policy = "mystery" },
		"ewma zero alpha": func(c *Config) { c.Policy = PolicyEWMA; c.EWMAAlpha = 0 },
		"ewma big alpha":  func(c *Config) { c.Policy = PolicyEWMA; c.EWMAAlpha = 1.5 },
		"ewma low>high":   func(c *Config) { c.Policy = PolicyEWMA; c.LowWatermark = 0.99 },
		"ewma high>1":     func(c *Config) { c.Policy = PolicyEWMA; c.HighWatermark = 1.5; c.LowWatermark = 1.2 },
	}
	for name, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
	}
	ok := DefaultConfig()
	ok.HysteresisFactor = 0 // [0,1] means "no hysteresis", still valid
	if err := ok.Validate(); err != nil {
		t.Errorf("zero hysteresis rejected: %v", err)
	}
}

// FuzzParseSpec: any input may be rejected, but none may panic, and every
// accepted spec must round-trip through its canonical rendering.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"", "off", "none", "false", "0", "  OFF  ", "on", "default", "true", "1",
		"policy=ewma, epoch=1000, pages=4, alpha=0.25, high=0.8, low=0.5, wb=2",
		"frobnicate=1", "epoch", "epoch=fast", "minheat=0", "policy=mystery",
		"cooldown=-1", "hyst=-0.5", "wb=-1", "policy=ewma,alpha=1.5",
		"policy=ewma,low=0.9,high=0.5", "policy=ewma,low=0",
		DefaultConfig().Spec(), "policy=ewma,wb=0,cooldown=0",
		"policy=", "minheat=-1", "hyst=NaN", "alpha=-Inf",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseSpec(s)
		if err != nil || c == nil {
			return
		}
		again, err := ParseSpec(c.Spec())
		if err != nil {
			t.Fatalf("ParseSpec(%q) rendered %q, which does not parse: %v", s, c.Spec(), err)
		}
		if again == nil || *again != *c {
			t.Fatalf("ParseSpec(%q) = %+v; its spec %q parses to %+v", s, *c, c.Spec(), again)
		}
	})
}
