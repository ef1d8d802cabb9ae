package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a pprof profile the folding needs: per-sample
// values and call stacks as function names, innermost frame first (inlined
// frames expanded).
type profile struct {
	sampleTypes []string
	samples     []profSample
}

type profSample struct {
	stack  []string
	values []int64
}

// valueIndex reports the position of the named sample type.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q sample type (have %v)", name, p.sampleTypes)
}

// parseProfile decodes a gzipped profile.proto message, as written by
// runtime/pprof.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeIdx   []int64
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					var fn uint64
					err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
					fns = append(fns, fn)
					return err
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for _, s := range samples {
		ps := profSample{values: s.values}
		for _, id := range s.locs {
			for _, fn := range locations[id] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// walkFields calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (wire 0) or packed (wire 2).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

const internalPrefix = "sdnbuffer/internal/"

// owner names the bucket a call stack (innermost frame first) is charged
// to. The innermost frame of a measured layer or of the benchmark itself
// owns the sample, so runtime work — malloc, map and hash operations, GC
// assists — is charged to the code that called it. Stacks no owner claims
// go to runtime_gc when they run a collector goroutine, else runtime_other.
func owner(stack []string, measured map[string]bool) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if l := rest[:strings.IndexAny(rest+".", "./")]; measured[l] {
				return l
			}
			continue
		}
		if strings.HasPrefix(fn, "main.") {
			return bucketBench
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return bucketGC
		}
	}
	return bucketOther
}

// fold sums one sample value per bucket.
func fold(p *profile, valueIdx int) map[string]int64 {
	measured := make(map[string]bool, len(layers))
	for _, l := range layers {
		measured[l] = true
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		if valueIdx < len(s.values) {
			out[owner(s.stack, measured)] += s.values[valueIdx]
		}
	}
	return out
}
