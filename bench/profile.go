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

// modulePrefix marks the functions that belong to a layer of svrlab.
const modulePrefix = "github.com/svrlab/svrlab/internal/"

// layerOf names the layer a function belongs to: the <pkg> of an
// internal/<pkg> function, or "" for anything else.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute reads a gzipped pprof profile and sums the sample column named
// column per layer. Each sample is charged to its innermost internal/<pkg>
// frame (inlined frames included); a sample with none goes to "runtime".
func attribute(gz []byte, column string) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	col := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == column {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile has no %q column", column)
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		if col >= len(s.values) {
			return nil, errors.New("sample shorter than its sample types")
		}
		out[p.sampleLayer(s)] += float64(s.values[col])
	}
	return out, nil
}

func (p *profile) sampleLayer(s sample) string {
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			if l := layerOf(p.str(p.functions[fn])); l != "" {
				return l
			}
		}
	}
	return "runtime"
}

// profile holds the parts of a profile.proto message the attribution
// needs (github.com/google/pprof/proto/profile.proto).
type profile struct {
	sampleTypes []int64 // string-table index of each column's type
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → string-table index of its name
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			var typ int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case 2: // sample: {location_id = 1, value = 2}
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(v, b, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return varints(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id = 1, line = 4: Line{function_id = 1}}
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: {id = 1, name = 2}
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message. For each field it calls fn with the
// field number and either the varint value or the length-delimited bytes
// (fixed-width values are skipped; the profile fields read here use none).
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(data) < width {
				return errTruncated
			}
			data = data[width:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field, which encoders may write
// either packed (b holds the values) or as a single value v.
func varints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
