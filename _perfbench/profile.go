package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// profileHz is the CPU profile's requested sampling rate. The default
// 100 Hz gives a 100 ms campaign ten samples. The kernel delivers the
// profiling signal at most once per scheduler tick, so the effective rate
// can be lower (about 300 Hz on a 250 Hz-tick kernel) than the period the
// profile records; the split therefore uses sample shares only.
const profileHz = 1000

// profiled runs op under a CPU profile of this process and returns the
// share of op's wall time spent in each layer: the layer's share of the
// profile's samples times wall. op reports its own wall time, so the
// shares scale exactly to it.
func profiled(op func() (wall time.Duration, err error)) (map[layer]float64, error) {
	// pprof.StartCPUProfile asks for 100 Hz; setting the rate first makes
	// the runtime keep this one (it prints a warning to standard error,
	// which spawn drops) and the profile records the period it used.
	runtime.SetCPUProfileRate(profileHz)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, err
	}
	wall, err := op()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	samples, err := splitProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	var total int64
	for _, n := range samples {
		total += n
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile of a %v operation holds no sample", wall)
	}
	out := make(map[layer]float64, len(samples))
	for l, n := range samples {
		out[l] = wall.Seconds() * float64(n) / float64(total)
	}
	return out, nil
}

// rateWarning is what the runtime prints when pprof.StartCPUProfile
// finds the rate already set.
const rateWarning = "runtime: cannot set cpu profile rate until previous profile has finished."

// splitProfile decodes a gzipped profile.proto and counts every sample
// in the layer its stack belongs to.
func splitProfile(gz []byte) (map[layer]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decode CPU profile: %w", err)
	}
	out := map[layer]int64{}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string // leaf first
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				stack = append(stack, p.funcName(fid))
			}
		}
		out[classify(stack)] += s.values[0]
	}
	return out, nil
}

// profileData is the part of a profile.proto the layer split needs.
type profileData struct {
	samples  []profileSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inlined first
	funcs    map[uint64]int64    // function id -> name's string-table index
	strs     []string
}

type profileSample struct {
	locs   []uint64 // leaf first
	values []int64  // CPU profiles: sample count, CPU nanoseconds
}

func (p *profileData) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

// decodeProfile reads the fields of a profile.proto message that the
// layer split uses: sample (2), location (4), function (5) and
// string_table (6).
func decodeProfile(b []byte) (*profileData, error) {
	p := &profileData{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s profileSample
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendInts(&s.locs, v, m)
				case 2:
					var vs []uint64
					err := appendInts(&vs, v, m)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fids []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(m, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fids
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	return p, err
}

// appendInts appends a repeated integer field, packed (msg) or not (v).
func appendInts(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := varint(msg)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// eachField calls fn for every field of a protobuf message: v carries a
// varint or fixed-width value, msg a length-delimited payload (nil for
// the other wire types).
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			if v, n = varint(b); n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			msg = b[n : n+int(l)]
			if msg == nil {
				msg = []byte{}
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
		if err := fn(int(key>>3), v, msg); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// stderrFilter passes a child's standard error through to this process's,
// dropping the profiler's rate warning.
type stderrFilter struct{ buf bytes.Buffer }

func (f *stderrFilter) Write(b []byte) (int, error) {
	f.buf.Write(b)
	for {
		line, err := f.buf.ReadString('\n')
		if err != nil {
			f.buf.WriteString(line)
			return len(b), nil
		}
		if !strings.HasPrefix(line, rateWarning) {
			os.Stderr.WriteString(line)
		}
	}
}

// flush writes out a last unterminated line.
func (f *stderrFilter) flush() {
	if rest := f.buf.String(); rest != "" && !strings.HasPrefix(rest, rateWarning) {
		os.Stderr.WriteString(rest)
	}
	f.buf.Reset()
}
