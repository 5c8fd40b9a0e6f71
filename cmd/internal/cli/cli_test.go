package cli

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
)

// The shared flag sets of each binary.
const (
	hmsim    = Shrink | Topology | Migrate | Probe | Profile
	hmexp    = Shrink | Workers | Topology | Migrate | Probe | Profile
	hmserved = Workers
	hmprof   = Shrink
)

// parse registers set on a fresh flag set, parses args, and returns every
// error the binary would report before exiting 2 (a flag the set does not
// declare, or a value of the wrong type, fails the parse itself).
func parse(set Set, args ...string) (errs []error, parseErr error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, set)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	opts, err := f.Options()
	return Errors(err, opts.Validate()), nil
}

// TestValidate is the table test of the shared run options: every binary's
// shared flags, valid and invalid, with the number of errors reported
// together before exit 2.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		set  Set
		args []string
		want int // errors reported; -1 = the flag parse itself fails
	}{
		{"hmexp defaults", hmexp, nil, 0},
		{"hmexp valid everything", hmexp, []string{"-topology", "gh200", "-migrate", "policy=ewma",
			"-probe", "interval=5000,out=s.csv", "-shrink", "8", "-workers", "2"}, 0},
		{"unknown topology", hmexp, []string{"-topology", "vax"}, 1},
		{"bad migrate spec", hmexp, []string{"-migrate", "epoch=-1"}, 1},
		{"unknown migrate policy", hmexp, []string{"-migrate", "policy=fifo"}, 1},
		{"migrate spec invalid for the policy", hmexp, []string{"-migrate", "alpha=0,policy=ewma"}, 1},
		{"migrate spec valid for its own policy", hmexp, []string{"-migrate", "alpha=0"}, 0},
		{"bad probe spec", hmexp, []string{"-probe", "interval=0"}, 1},
		{"unknown probe format", hmexp, []string{"-probe", "format=xml"}, 1},
		{"shrink below 1", hmexp, []string{"-shrink", "-5"}, 1},
		{"zero shrink", hmsim, []string{"-shrink", "0"}, 1},
		{"negative workers", hmexp, []string{"-workers", "-3"}, 1},
		{"shrink and workers", hmexp, []string{"-shrink", "-5", "-workers", "-3"}, 2},
		{"hmexp everything wrong", hmexp, []string{"-topology", "vax", "-migrate", "epoch=-1",
			"-probe", "format=xml", "-shrink", "0", "-workers", "-1"}, 5},
		{"hmexp declares no -migrate-policy", hmexp, []string{"-migrate-policy", "ewma"}, -1},
		{"hmsim defaults", hmsim, nil, 0},
		{"hmsim valid", hmsim, []string{"-topology", "gh200", "-migrate", "policy=ewma",
			"-probe", "interval=1000,samples=64"}, 0},
		{"hmsim everything wrong", hmsim, []string{"-topology", "vax", "-migrate", "policy=no-such-policy",
			"-probe", "samples=1", "-shrink", "-7"}, 4},
		{"hmsim declares no -workers", hmsim, []string{"-workers", "2"}, -1},
		{"hmsim declares no -lanes", hmsim, []string{"-lanes", "2"}, -1},
		{"hmsim declares no -migrate-policy", hmsim, []string{"-migrate-policy", "ewma"}, -1},
		{"hmserved defaults", hmserved, nil, 0},
		{"hmserved valid", hmserved, []string{"-workers", "4"}, 0},
		{"hmserved everything wrong", hmserved, []string{"-workers", "-1"}, 1},
		{"hmserved declares no -shrink", hmserved, []string{"-shrink", "2"}, -1},
		{"hmserved declares no -topology", hmserved, []string{"-topology", "gh200"}, -1},
		{"hmserved declares no -migrate", hmserved, []string{"-migrate", "on"}, -1},
		{"hmprof shrink", hmprof, []string{"-shrink", "16"}, 0},
		{"hmprof negative shrink", hmprof, []string{"-shrink", "-7"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs, parseErr := parse(tc.set, tc.args...)
			if tc.want < 0 {
				if parseErr == nil {
					t.Fatalf("%v parsed, want a flag error", tc.args)
				}
				return
			}
			if parseErr != nil {
				t.Fatalf("%v: %v", tc.args, parseErr)
			}
			if len(errs) != tc.want {
				t.Errorf("%v: got %d errors, want %d: %v", tc.args, len(errs), tc.want, errs)
			}
		})
	}
}

// TestErrorsNameOptions: rejections name the valid choices, so an exit-2
// failure is self-explanatory.
func TestErrorsNameOptions(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-topology", "hbm9000"}, "k40-ddr4"},
		{[]string{"-migrate", "policy=mystery"}, "ewma"},
		{[]string{"-probe", "format=xml"}, "-probe"},
		{[]string{"-shrink", "-5"}, "shrink"},
		{[]string{"-workers", "-3"}, "workers"},
	} {
		errs, err := parse(hmexp, tc.args...)
		if err != nil || len(errs) != 1 || !strings.Contains(errs[0].Error(), tc.want) {
			t.Errorf("%v: got %v (parse %v), want one error mentioning %q", tc.args, errs, err, tc.want)
		}
	}
}

func TestErrorsFlattens(t *testing.T) {
	a, b, c := errors.New("a"), errors.New("b"), errors.New("c")
	got := Errors(nil, errors.Join(a, nil, errors.Join(b)), nil, c)
	if len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
		t.Errorf("Errors = %v, want [a b c]", got)
	}
	if got := Errors(nil, errors.Join()); got != nil {
		t.Errorf("Errors of nils = %v, want none", got)
	}
}
