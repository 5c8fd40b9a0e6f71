// Package kvspec is the grammar of the option values that configure a
// subsystem in one string, -migrate and -probe and their query
// parameters: an off word, an on word, or comma-separated key=value
// fields. Keys and words are case-insensitive. Each caller keeps its own
// keys, defaults, validation and canonical rendering.
package kvspec

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads s and reports whether it enables the subsystem: false for
// an off word ("", off, none, false, 0), true otherwise. An on word (on,
// default, true, 1) selects the defaults and calls set for no field;
// otherwise set gets each non-empty field in order, its key trimmed and
// lower-cased and its value trimmed, and Parse returns the first error set
// returns. what names the spec in the error for a field without "=".
func Parse(what, s string, set func(key, val string) error) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off", "none", "false", "0":
		return false, nil
	case "on", "default", "true", "1":
		return true, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return false, fmt.Errorf("%s field %q, want key=value", what, field)
		}
		if err := set(strings.ToLower(strings.TrimSpace(key)), strings.TrimSpace(val)); err != nil {
			return false, err
		}
	}
	return true, nil
}

// Int parses val as a decimal integer and passes it to set.
func Int(val string, set func(int64)) error {
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return fmt.Errorf("value %q, want an integer", val)
	}
	set(n)
	return nil
}
