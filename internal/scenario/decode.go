package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"prism/internal/sim"
)

// The strict decoder walks the generic node tree (map[string]any, []any,
// string scalars) produced by parseTree. Every accessor records the keys
// it consumed; finish() then rejects any key the schema never asked for,
// with a path-qualified message listing the valid set — the unknown-field
// guarantee the satellite tests pin with hostile inputs.

// obj is one map node with its field path and consumed-key tracking.
type obj struct {
	path string
	m    map[string]any
	used map[string]bool
	keys []string // consumption order = the valid-key list in errors
}

func (o *obj) errf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", o.path, fmt.Sprintf(format, args...))
}

func (o *obj) fieldPath(key string) string { return o.path + "." + key }

// asObj asserts v is a map node.
func asObj(path string, v any) (*obj, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("%s: expected a mapping, got %s", path, nodeKind(v))
	}
	return &obj{path: path, m: m, used: map[string]bool{}}, nil
}

func nodeKind(v any) string {
	switch v.(type) {
	case map[string]any:
		return "a mapping"
	case []any:
		return "a list"
	case string:
		return "a scalar"
	default:
		return fmt.Sprintf("%T", v)
	}
}

// get marks a key consumed and returns its node.
func (o *obj) get(key string) (any, bool) {
	if !o.used[key] {
		o.used[key] = true
		o.keys = append(o.keys, key)
	}
	v, ok := o.m[key]
	return v, ok
}

// finish fails on any key present in the document but never consumed by
// the schema — the strict-decoding contract.
func (o *obj) finish() error {
	var unknown []string
	for k := range o.m {
		if !o.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	valid := append([]string(nil), o.keys...)
	sort.Strings(valid)
	return fmt.Errorf("%s: unknown field %q (valid: %s)",
		o.path, unknown[0], strings.Join(valid, ", "))
}

// scalar fetches a scalar field; ok=false when absent.
func (o *obj) scalar(key string) (string, bool, error) {
	v, ok := o.get(key)
	if !ok {
		return "", false, nil
	}
	s, isStr := v.(string)
	if !isStr {
		return "", false, fmt.Errorf("%s: expected a scalar, got %s", o.fieldPath(key), nodeKind(v))
	}
	return s, true, nil
}

func (o *obj) str(key, def string) (string, error) {
	s, ok, err := o.scalar(key)
	if err != nil || !ok {
		return def, err
	}
	return s, nil
}

func (o *obj) strRequired(key string) (string, error) {
	s, ok, err := o.scalar(key)
	if err != nil {
		return "", err
	}
	if !ok || s == "" {
		return "", fmt.Errorf("%s: required field missing", o.fieldPath(key))
	}
	return s, nil
}

// enum fetches a scalar restricted to the allowed values.
func (o *obj) enum(key, def string, allowed ...string) (string, error) {
	s, err := o.str(key, def)
	if err != nil {
		return "", err
	}
	for _, a := range allowed {
		if s == a {
			return s, nil
		}
	}
	return "", fmt.Errorf("%s: unknown value %q (valid: %s)",
		o.fieldPath(key), s, strings.Join(allowed, ", "))
}

func (o *obj) boolean(key string, def bool) (bool, error) {
	s, ok, err := o.scalar(key)
	if err != nil || !ok {
		return def, err
	}
	switch s {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, fmt.Errorf("%s: expected true or false, got %q", o.fieldPath(key), s)
}

func (o *obj) integer(key string, def int64) (int64, error) {
	s, ok, err := o.scalar(key)
	if err != nil || !ok {
		return def, err
	}
	n, perr := strconv.ParseInt(strings.ReplaceAll(s, "_", ""), 10, 64)
	if perr != nil {
		return 0, fmt.Errorf("%s: expected an integer, got %q", o.fieldPath(key), s)
	}
	return n, nil
}

// count fetches an optional integer field that, when present, must be at
// least 1; an absent field yields 0 (the caller's "use the default").
func (o *obj) count(key string) (int, error) {
	n, err := o.integer(key, 0)
	if err != nil {
		return 0, err
	}
	if _, set := o.m[key]; set && n < 1 {
		return 0, fmt.Errorf("%s: must be >= 1", o.fieldPath(key))
	}
	return int(n), nil
}

func (o *obj) float(key string, def float64) (float64, error) {
	s, ok, err := o.scalar(key)
	if err != nil || !ok {
		return def, err
	}
	return parseFloatScalar(o.fieldPath(key), s)
}

// rate decodes an optional packets-per-second field. An explicitly set
// value must be finite and non-negative, and positive when positive is
// set: a rate that paces requests has no interval at 0.
func (o *obj) rate(key string, positive bool) (float64, error) {
	f, err := o.float(key, 0)
	if _, set := o.m[key]; err != nil || !set {
		return f, err
	}
	switch {
	case positive && !(f > 0):
		return 0, fmt.Errorf("%s: must be > 0", o.fieldPath(key))
	case !(f >= 0):
		return 0, fmt.Errorf("%s: must be >= 0", o.fieldPath(key))
	case math.IsInf(f, 1):
		return 0, fmt.Errorf("%s: must be finite", o.fieldPath(key))
	}
	return f, nil
}

func parseFloatScalar(path, s string) (float64, error) {
	f, err := strconv.ParseFloat(strings.ReplaceAll(s, "_", ""), 64)
	if err != nil {
		return 0, fmt.Errorf("%s: expected a number, got %q", path, s)
	}
	return f, nil
}

// duration parses time.ParseDuration syntax ("5ms", "1.5us") into
// simulated time.
func (o *obj) duration(key string, def sim.Time) (sim.Time, error) {
	s, ok, err := o.scalar(key)
	if err != nil || !ok {
		return def, err
	}
	d, perr := time.ParseDuration(s)
	if perr != nil {
		return 0, fmt.Errorf("%s: expected a duration like 5ms, got %q", o.fieldPath(key), s)
	}
	if d < 0 {
		return 0, fmt.Errorf("%s: duration must not be negative, got %q", o.fieldPath(key), s)
	}
	return sim.Duration(d), nil
}

// list fetches a list field; absent yields (nil, false).
func (o *obj) list(key string) ([]any, bool, error) {
	v, ok := o.get(key)
	if !ok {
		return nil, false, nil
	}
	l, isList := v.([]any)
	if !isList {
		return nil, false, fmt.Errorf("%s: expected a list, got %s", o.fieldPath(key), nodeKind(v))
	}
	return l, true, nil
}

// floatList fetches a list of numeric scalars.
func (o *obj) floatList(key string) ([]float64, error) {
	l, ok, err := o.list(key)
	if err != nil || !ok {
		return nil, err
	}
	out := make([]float64, len(l))
	for i, e := range l {
		s, isStr := e.(string)
		if !isStr {
			return nil, fmt.Errorf("%s[%d]: expected a number, got %s", o.fieldPath(key), i, nodeKind(e))
		}
		f, perr := parseFloatScalar(fmt.Sprintf("%s[%d]", o.fieldPath(key), i), s)
		if perr != nil {
			return nil, perr
		}
		out[i] = f
	}
	return out, nil
}

// strList fetches a list of string scalars.
func (o *obj) strList(key string) ([]string, error) {
	l, ok, err := o.list(key)
	if err != nil || !ok {
		return nil, err
	}
	out := make([]string, len(l))
	for i, e := range l {
		s, isStr := e.(string)
		if !isStr {
			return nil, fmt.Errorf("%s[%d]: expected a scalar, got %s", o.fieldPath(key), i, nodeKind(e))
		}
		out[i] = s
	}
	return out, nil
}

// child fetches a nested mapping; absent yields (nil, nil).
func (o *obj) child(key string) (*obj, error) {
	v, ok := o.get(key)
	if !ok {
		return nil, nil
	}
	return asObj(o.fieldPath(key), v)
}

// children fetches a list of mappings.
func (o *obj) children(key string) ([]*obj, error) {
	l, ok, err := o.list(key)
	if err != nil || !ok {
		return nil, err
	}
	out := make([]*obj, len(l))
	for i, e := range l {
		c, cerr := asObj(fmt.Sprintf("%s[%d]", o.fieldPath(key), i), e)
		if cerr != nil {
			return nil, cerr
		}
		out[i] = c
	}
	return out, nil
}
