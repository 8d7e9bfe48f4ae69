package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator's modules (prism/internal/<module>) a CPU
// sample can be charged to, in the order the layer table prints them.
var layers = []string{
	"sim", "pkt", "nic", "netdev", "softirq", "napi", "core", "overlay",
	"bridge", "veth", "socket", "prio", "traffic", "cpu", "sched", "obs",
	"stats", "fault", "par", "cluster", "testbed",
}

const (
	// gcLayer takes samples with no simulator frame on their stack: the
	// garbage collector's background workers, scavenger and scheduler.
	gcLayer = "runtime.gc"
	// otherLayer takes samples whose innermost simulator frame is in a
	// module outside layers (experiments, recover, …).
	otherLayer = "other"

	modulePrefix = "prism/internal/"
)

// layerOf charges one stack, innermost frame first, to the innermost
// prism/internal/<module> frame on it, so runtime work a module calls —
// map hashing under obs, allocation under pkt — counts as that module.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, modulePrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		return otherLayer
	}
	return gcLayer
}

// layerSamples decodes a gzipped pprof CPU profile (the format
// runtime/pprof writes) and adds its sample counts per layer into acc.
func layerSamples(profile []byte, acc map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				stack = append(stack, p.strings[p.functions[fid]])
			}
		}
		if len(s.values) > 0 {
			acc[layerOf(stack)] += s.values[0]
		}
	}
	return nil
}

// The decoder reads only the parts of profile.proto the bucketing needs:
// samples (location ids and values), locations (their inlined function
// chain, innermost first) and functions (name string index).
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids
	functions map[uint64]int64    // function id → string table index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

var errTruncated = errors.New("truncated protobuf")

// field is one decoded protobuf field: varint value or length-delimited
// bytes.
type field struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func fields(buf []byte, fn func(f field) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			f.b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(buf []byte) (uint64, int) {
	var x uint64
	for i, b := range buf {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeated appends a repeated integer field, packed or not.
func repeated(f field, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := fields(raw, func(f field) error {
		switch f.num {
		case 2: // sample
			var s sample
			var vals []uint64
			err := fields(f.b, func(sf field) error {
				var err error
				switch sf.num {
				case 1:
					s.locs, err = repeated(sf, s.locs)
				case 2:
					vals, err = repeated(sf, vals)
				}
				return err
			})
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(f.b, func(lf field) error {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // line
					return fields(lf.b, func(ln field) error {
						if ln.num == 1 {
							fns = append(fns, ln.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(f.b, func(ff field) error {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = int64(ff.v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d outside string table", name)
		}
	}
	for _, fns := range p.locations {
		for _, fid := range fns {
			if _, ok := p.functions[fid]; !ok {
				return nil, fmt.Errorf("location references unknown function %d", fid)
			}
		}
	}
	return p, nil
}
