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

// layers are the repository's packages the CPU profile is grouped into,
// plus "runtime" (stacks with no repository frame: GC workers, the
// scheduler), "bench" (this benchmark's own hooks and wrappers) and
// "other" (any remaining repository package).
var layers = []string{
	"cluster", "workload", "simnet", "pbft", "sb", "core", "partition", "order",
	"ledger", "types", "wire", "transport", "metrics", "runtime", "bench", "other",
}

// layerOf maps a profiled function name to its layer, or "" for a frame
// outside the repository (the standard library and the runtime).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		if strings.HasPrefix(fn, "repro/") {
			return "other"
		}
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// cpuShares decodes a runtime/pprof CPU profile and returns each layer's
// share of the sampled CPU time. A sample belongs to the layer of its
// innermost repository frame (inlined frames included), so allocation
// and hashing work lands on the layer that asked for it; samples without
// one belong to "runtime". Every layer is present and the shares sum to 1.
func cpuShares(profile []byte) (map[string]float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	byLayer := make(map[string]int64, len(layers))
	var total int64
	for _, s := range p.samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOf(p.funcNames[fn]); l != "" {
					layer = l
					break stack
				}
			}
		}
		byLayer[layer] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, errors.New("profile has no samples")
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = float64(byLayer[l]) / float64(total)
	}
	return shares, nil
}

// profile is the part of a pprof profile the grouping needs: each
// sample's location IDs (leaf first) and value, each location's function
// IDs (innermost inlined frame first), and function names.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64
	funcNames map[uint64]string
}

type sample struct {
	locs  []uint64
	value int64 // the first sample type: the sample count for CPU profiles
}

// parseProfile decodes the gzipped profile.proto message runtime/pprof
// writes. Only the fields the grouping reads are decoded; the rest are
// skipped by wire type.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	nameIdx := map[uint64]int64{}
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					if first {
						vals := appendPacked(nil, v, b)
						if len(vals) > 0 {
							s.value, first = int64(vals[0]), false
						}
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // Function
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
			nameIdx[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, i := range nameIdx {
		if i < 0 || i >= int64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, i, len(strs))
		}
		p.funcNames[id] = strs[i]
	}
	return p, nil
}

// fields walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var body []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", typ)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values, whether it was
// encoded packed (body b) or as a single varint v.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}
