package kvspec

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// collect parses s and returns what Parse reported and the fields it
// handed to set, as "key=val" strings.
func collect(s string) (bool, []string, error) {
	var fields []string
	on, err := Parse("test spec", s, func(k, v string) error {
		fields = append(fields, k+"="+v)
		return nil
	})
	return on, fields, err
}

func TestParseWords(t *testing.T) {
	for _, s := range []string{"", "off", "none", "false", "0", "  OFF ", "None"} {
		if on, fields, err := collect(s); on || fields != nil || err != nil {
			t.Errorf("Parse(%q) = %v, %v, %v; want off", s, on, fields, err)
		}
	}
	for _, s := range []string{"on", "default", "true", "1", " ON", "Default"} {
		if on, fields, err := collect(s); !on || fields != nil || err != nil {
			t.Errorf("Parse(%q) = %v, %v, %v; want on with no fields", s, on, fields, err)
		}
	}
}

func TestParseFields(t *testing.T) {
	on, fields, err := collect(" Epoch = 10 ,, OUT=Run.CSV,k=a=b,empty=")
	want := []string{"epoch=10", "out=Run.CSV", "k=a=b", "empty="}
	if !on || err != nil || !reflect.DeepEqual(fields, want) {
		t.Fatalf("Parse = %v, %v, %v; want on, %v", on, fields, err, want)
	}
	if _, _, err := collect("epoch=1,epoch"); err == nil || !strings.Contains(err.Error(), `test spec field "epoch", want key=value`) {
		t.Errorf("field without '=': err = %v", err)
	}
	stop := errors.New("stop")
	calls := 0
	on, err = Parse("test spec", "a=1,b=2", func(string, string) error { calls++; return stop })
	if on || err != stop || calls != 1 {
		t.Errorf("set error: Parse = %v, %v after %d calls; want false, stop after 1", on, err, calls)
	}
}

func TestInt(t *testing.T) {
	var got int64
	if err := Int("-42", func(n int64) { got = n }); err != nil || got != -42 {
		t.Errorf("Int(-42) = %d, %v", got, err)
	}
	for _, s := range []string{"", "x", "1.5", "99999999999999999999"} {
		if err := Int(s, func(int64) { t.Errorf("Int(%q) called set", s) }); err == nil || !strings.Contains(err.Error(), "want an integer") {
			t.Errorf("Int(%q) err = %v", s, err)
		}
	}
}
