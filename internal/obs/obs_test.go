package obs

import (
	"bytes"
	"strings"
	"testing"

	"hetsim/internal/sim"
)

func TestParseSpecOffForms(t *testing.T) {
	for _, spec := range []string{"", "off", "none", "false", "0", "  off  "} {
		cfg, err := ParseSpec(spec)
		if err != nil || cfg != nil {
			t.Errorf("ParseSpec(%q) = %v, %v; want nil, nil", spec, cfg, err)
		}
	}
}

func TestParseSpecOnForms(t *testing.T) {
	want := DefaultConfig()
	for _, spec := range []string{"on", "default", "true", "1"} {
		cfg, err := ParseSpec(spec)
		if err != nil || cfg == nil || *cfg != want {
			t.Errorf("ParseSpec(%q) = %+v, %v; want defaults", spec, cfg, err)
		}
	}
}

func TestParseSpecKeys(t *testing.T) {
	cfg, err := ParseSpec("interval=20000, samples=64, out=run.csv, format=csv")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Interval: 20000, MaxSamples: 64, Out: "run.csv", Format: "csv"}
	if *cfg != want {
		t.Fatalf("got %+v, want %+v", *cfg, want)
	}
	if got := cfg.Spec(); got != "interval=20000,samples=64,out=run.csv,format=csv" {
		t.Fatalf("Spec() = %q", got)
	}
	round, err := ParseSpec(cfg.Spec())
	if err != nil || *round != *cfg {
		t.Fatalf("Spec round-trip = %+v, %v", round, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for spec, frag := range map[string]string{
		"interval=0":        "Interval",
		"interval=x":        "integer",
		"samples=1":         "MaxSamples",
		"samples=999999999": "MaxSamples",
		"format=xml":        "format",
		"bogus=1":           "unknown probe spec key",
		"interval":          "key=value",
	} {
		if _, err := ParseSpec(spec); err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("ParseSpec(%q) err = %v, want mention of %q", spec, err, frag)
		}
	}
}

func TestEffectiveFormat(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Format: "csv"}, FormatCSV},
		{Config{Format: "json", Out: "x.csv"}, FormatJSON},
		{Config{Out: "x.csv"}, FormatCSV},
		{Config{Out: "x.CSV"}, FormatCSV},
		{Config{Out: "x.json"}, FormatJSON},
		{Config{}, FormatJSON},
	}
	for _, c := range cases {
		if got := c.cfg.EffectiveFormat(); got != c.want {
			t.Errorf("%+v EffectiveFormat = %q, want %q", c.cfg, got, c.want)
		}
	}
}

// fill records n synthetic samples on an attached-like probe by driving the
// ring directly, bypassing Attach (which needs a full simulator).
func fill(t *testing.T, capn, n int) *Probe {
	t.Helper()
	p, err := New(Config{Interval: 10, MaxSamples: capn})
	if err != nil {
		t.Fatal(err)
	}
	p.columns = []string{"time_cycles", "v"}
	p.ncols = 2
	p.capn = capn
	p.buf = make([]float64, capn*2)
	p.row = make([]float64, 2)
	for i := 0; i < n; i++ {
		p.row[0] = float64(i * 10)
		p.row[1] = float64(i)
		slot := int(p.count % uint64(p.capn))
		copy(p.buf[slot*2:(slot+1)*2], p.row)
		p.count++
	}
	return p
}

func TestSnapshotRingOverwrite(t *testing.T) {
	p := fill(t, 4, 10) // samples 0..9, ring keeps 6..9
	s := p.Snapshot()
	if s.Dropped != 6 || len(s.Rows) != 4 || s.Seq != 10 {
		t.Fatalf("dropped=%d rows=%d seq=%d, want 6/4/10", s.Dropped, len(s.Rows), s.Seq)
	}
	if s.Rows[0][1] != 6 || s.Rows[3][1] != 9 {
		t.Fatalf("retained window = [%g, %g], want [6, 9]", s.Rows[0][1], s.Rows[3][1])
	}
}

func TestSnapshotSinceCursor(t *testing.T) {
	p := fill(t, 8, 5)
	s := p.SnapshotSince(3)
	if s.Dropped != 0 || len(s.Rows) != 2 || s.Rows[0][1] != 3 {
		t.Fatalf("cursor read = dropped %d, %d rows from %g", s.Dropped, len(s.Rows), s.Rows[0][1])
	}
	// Cursor behind the retained window: the gap is reported as dropped.
	p = fill(t, 4, 10)
	s = p.SnapshotSince(2)
	if s.Dropped != 4 || len(s.Rows) != 4 {
		t.Fatalf("stale cursor = dropped %d, %d rows; want 4, 4", s.Dropped, len(s.Rows))
	}
	// Cursor at the end: empty increment, no drops.
	s = p.SnapshotSince(s.Seq)
	if s.Dropped != 0 || len(s.Rows) != 0 {
		t.Fatalf("caught-up cursor = dropped %d, %d rows; want 0, 0", s.Dropped, len(s.Rows))
	}
}

func TestSnapshotUnattached(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if len(s.Rows) != 0 || s.Final {
		t.Fatalf("unattached snapshot = %+v, want empty", s)
	}
}

func TestWriteAndValidateJSON(t *testing.T) {
	p := fill(t, 8, 3)
	snap := p.Snapshot()
	snap.Final = true
	snap.FinalTime = 20
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Samples != 3 || sum.Series != 1 || sum.FinalTime != 20 {
		t.Fatalf("summary = %+v", sum)
	}
	if got := sum.String(); !strings.Contains(got, "3 samples") || !strings.Contains(got, "1 series") {
		t.Fatalf("summary string = %q", got)
	}
}

func TestWriteAndValidateCSV(t *testing.T) {
	p := fill(t, 8, 3)
	var buf bytes.Buffer
	if err := p.Snapshot().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(buf.String(), "\n")
	if first != "time_cycles,v" {
		t.Fatalf("CSV header = %q", first)
	}
	sum, err := ValidateCSV(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Samples != 3 || sum.Series != 1 || sum.FinalTime != 20 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestValidateRejects(t *testing.T) {
	if _, err := ValidateJSON([]byte(`{"columns":["x"],"rows":[]}`)); err == nil {
		t.Error("accepted JSON without time_cycles lead column")
	}
	if _, err := ValidateJSON([]byte(`{"columns":["time_cycles"],"rows":[[1,2]]}`)); err == nil {
		t.Error("accepted ragged row")
	}
	if _, err := ValidateJSON([]byte(`{"columns":["time_cycles"],"rows":[[5],[1]]}`)); err == nil {
		t.Error("accepted decreasing timestamps")
	}
	if _, err := ValidateCSV([]byte("time_cycles,v\n1,x\n")); err == nil {
		t.Error("accepted non-numeric CSV cell")
	}
	if _, err := ValidateCSV(nil); err == nil {
		t.Error("accepted empty CSV")
	}
}

func TestCountersGrouping(t *testing.T) {
	s := Snapshot{
		Columns: []string{"time_cycles", "util.gddr5", "util.ddr4", "wb.depth", "warps_done"},
		Rows:    [][]float64{{100, 0.5, 0.25, 3, 7}, {200, 0.6, 0.3, 0, 9}},
	}
	cs := s.Counters("sim:test")
	// 3 groups (util, wb, warps_done) × 2 samples.
	if len(cs) != 6 {
		t.Fatalf("got %d counters, want 6", len(cs))
	}
	if cs[0].Name != "util" || cs[0].TS != 100 || cs[0].Vals["gddr5"] != 0.5 || cs[0].Vals["ddr4"] != 0.25 {
		t.Fatalf("first counter = %+v", cs[0])
	}
	if cs[2].Name != "warps_done" || cs[2].Vals["value"] != 7 {
		t.Fatalf("dot-less counter = %+v", cs[2])
	}
	for _, c := range cs {
		if c.Proc != "sim:test" {
			t.Fatalf("proc = %q", c.Proc)
		}
	}
}

func TestFinalTimeType(t *testing.T) {
	// FinalTime survives JSON as sim.Time (integer cycles).
	snap := Snapshot{IntervalCycles: 10, Columns: []string{"time_cycles"}, FinalTime: sim.Time(1 << 40)}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sum.FinalTime != 1<<40 {
		t.Fatalf("FinalTime = %d", sum.FinalTime)
	}
}

// FuzzParseSpec: any input may be rejected, but none may panic, and every
// accepted spec must round-trip through Config.Spec.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"", "off", "none", "false", "0", " on ", "default", "true", "1",
		"interval=20000,samples=1024,out=run.csv,format=csv",
		"interval=5000", "samples=2", "samples=1", "interval=0", "interval=-1",
		"format=xml", "format=json,out=x.csv", "out=a=b", "out=,samples=8",
		"bogus=1", "interval", "interval=fast", "samples=1048577", " interval = 7 , samples = 9 ",
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
