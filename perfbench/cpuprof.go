package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// cpuBuckets are the buckets reported even when no sample lands in them,
// so every traced run prints the same cpu.* names.
var cpuBuckets = []string{
	"workload", "hostos", "memory", "cache", "tlb", "coherence", "ats", "accel",
	"core", "sim", "tracerec", "traffic", "stats", "serve",
	"runtime_gc", "runtime_malloc", "runtime_map",
}

type profile struct {
	f    *os.File
	path string
}

func startProfile(path string) (*profile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{f: f, path: path}, nil
}

// stop ends the profile and returns each bucket's share of CPU samples and
// the sample count.
func (p *profile) stop() (map[string]float64, int, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, 0, err
	}
	blob, err := os.ReadFile(p.path)
	if err != nil {
		return nil, 0, err
	}
	counts, err := bucketSamples(blob)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", p.path, err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	for b, n := range counts {
		if total > 0 {
			shares[b] = float64(n) / float64(total)
		}
	}
	return shares, total, nil
}

// bucket attributes one sample's stack (leaf first) to a layer. The
// runtime frames between the leaf and the first frame of this repository
// decide the runtime buckets (GC, then allocation, then map operations);
// otherwise the sample belongs to the package of that first frame, so a
// memmove called from hostos counts as hostos.
func bucket(frames []string) string {
	var own string
	rt := frames
	for i, f := range frames {
		if p, ok := strings.CutPrefix(f, "bordercontrol/internal/"); ok {
			own, _, _ = strings.Cut(p, ".")
			rt = frames[:i]
			break
		}
		if strings.HasPrefix(f, "main.") {
			own, rt = "bench", frames[:i]
			break
		}
	}
	for _, test := range []struct {
		name     string
		prefixes []string
	}{
		{"runtime_gc", []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.greyobject", "runtime.(*gcWork)", "runtime.(*mspan).sweep"}},
		{"runtime_malloc", []string{"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice", "runtime.growslice", "runtime.rawbyteslice", "runtime.rawstring"}},
		{"runtime_map", []string{"runtime.map", "internal/runtime/maps.", "runtime.memhash", "runtime.aeshash", "runtime.strhash", "runtime.evacuate", "runtime.growWork", "runtime.hashGrow"}},
	} {
		for _, f := range rt {
			for _, p := range test.prefixes {
				if strings.HasPrefix(f, p) {
					return test.name
				}
			}
		}
	}
	switch {
	case own != "":
		return own
	case len(frames) > 0 && strings.HasPrefix(frames[0], "runtime."):
		return "runtime_other"
	default:
		return "other"
	}
}

// bucketSamples decodes a gzipped pprof profile (profile.proto) far
// enough to walk each sample's stack, and counts samples per bucket.
func bucketSamples(blob []byte) (map[string]int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sampleRec struct {
		locs  []uint64
		count int64
	}
	var (
		strs    []string
		samples []sampleRec
		locFns  = map[uint64][]uint64{} // location id -> function ids, inlined first
		fnName  = map[uint64]uint64{}   // function id -> string index
	)
	err = walk(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sampleRec
			var values []int64
			err := walk(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, data)
				case 2:
					for _, x := range appendPacked(nil, v, data) {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if len(values) > 0 {
				s.count = values[0]
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return walk(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walk(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for _, s := range samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					frames = append(frames, strs[idx])
				}
			}
		}
		counts[bucket(frames)] += int(s.count)
	}
	return counts, nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// varint v, data nil) or packed (data holds the varints).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile")

// walk calls fn for each field of one protobuf message: varint fields get
// v, length-delimited fields get data (non-nil, possibly empty).
func walk(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
