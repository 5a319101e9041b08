package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// layers are the modules a CPU-profile sample can be charged to, in report
// order. Each repository package under internal/ that carries real work is
// its own layer; the rest of the module (ecnsim, rng, units, stats, trace)
// and this benchmark fall into "other"; the standard library outside the
// runtime is "stdlib". Samples with only runtime frames are "sched" when they
// are the scheduler's own work (a Gosched or park switches to the scheduler's
// stack, which has no caller frames) and "runtime" otherwise: GC workers,
// sweeping, scavenging.
var layers = []string{
	"sim", "pool", "netsim", "qdisc", "packet", "tcp", "mapred", "metrics",
	"flow", "topo", "cluster", "simnet", "experiment", "other", "stdlib",
	"sched", "runtime",
}

// layerMetric names a layer's per-layer metric.
func layerMetric(layer string) string {
	switch layer {
	case "sched":
		return "runtime.sched_s"
	case "runtime":
		return "runtime.gc_bg_s"
	}
	return layer + ".self_s"
}

// schedFrames mark a runtime-only sample as the scheduler's work.
var schedFrames = map[string]bool{"runtime.mcall": true, "runtime.schedule": true}

// funcPackage returns the import path of a Go symbol such as
// "repro/internal/sim.(*Engine).Run" or "net/http.(*conn).serve".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiations may hold other paths
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return name[:slash+1+dot]
}

// isRuntime reports whether a frame belongs to the Go runtime, whose cost is
// charged to the innermost caller outside it.
func isRuntime(name, pkg string) bool {
	switch {
	case pkg == "", strings.HasPrefix(name, "type:"):
		return true // compiler-generated helpers and unsymbolised frames
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"),
		strings.HasPrefix(pkg, "internal/runtime/"), pkg == "sync/atomic",
		pkg == "internal/bytealg", pkg == "internal/abi", pkg == "internal/cpu",
		pkg == "internal/chacha8rand":
		return true
	}
	return false
}

// layerOf maps a frame outside the runtime to its layer.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	first, _, _ := strings.Cut(pkg, "/")
	if first == "repro" || first == "main" || strings.Contains(first, ".") {
		return "other"
	}
	return "stdlib"
}

// cpuTolerance is how far a traced pass's profiled CPU may stray from the
// process CPU that getrusage measured over the same span, as a share of the
// latter.
const cpuTolerance = 0.1

// checkProfile holds a traced pass's profile to figures taken apart from it:
// the sampling rate the benchmark set, and the process CPU of the pass. A
// profile that charged its layers from too few samples, or missed a thread,
// fails here.
func checkProfile(p *profile, cpu time.Duration) error {
	if p.hz != profileHz {
		return fmt.Errorf("profile sampled at %d Hz, want %d", p.hz, profileHz)
	}
	got, want := time.Duration(p.totalNS), cpu
	if want <= 0 || math.Abs(float64(got-want)) > cpuTolerance*float64(want) {
		return fmt.Errorf("profile saw %v of CPU, getrusage %v: outside %.0f%%", got, want, 100*cpuTolerance)
	}
	return nil
}

// profile is the part of a pprof CPU profile the layer table needs.
type profile struct {
	hz      int64
	totalNS int64            // CPU nanoseconds over all samples
	layerNS map[string]int64 // CPU nanoseconds charged to each layer
}

// chargeLayers decodes a gzipped pprof CPU profile and charges each sample to
// the innermost frame outside the runtime.
func chargeLayers(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	cpu := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	funcLayer := make(map[uint64]string, len(p.funcs)) // "" = runtime
	for id, nameIdx := range p.funcs {
		name := p.str(nameIdx)
		if pkg := funcPackage(name); !isRuntime(name, pkg) {
			funcLayer[id] = layerOf(pkg)
		} else if schedFrames[name] {
			funcLayer[id] = "sched"
		}
	}
	out := &profile{layerNS: make(map[string]int64)}
	if p.period > 0 {
		out.hz = 1e9 / p.period
	}
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ns := s.values[cpu]
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locs[loc] { // innermost inlined frame first
				switch l := funcLayer[fn]; l {
				case "":
				case "sched":
					layer = l // keep looking for a caller outside the runtime
				default:
					layer = l
					break stack
				}
			}
		}
		out.layerNS[layer] += ns
		out.totalNS += ns
	}
	return out, nil
}

// rawProfile is a decoded profile.proto message, reduced to the fields the
// layer charge reads.
type rawProfile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []rawSample
	locs        map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]int64    // function id -> name string index
	strs        []string
	period      int64
}

type rawSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *rawProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// pbField is one protobuf field: its number, wire type and payload (a varint
// value, or the bytes of a length-delimited field).
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("short fixed64")
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bad length")
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("short fixed32")
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func (f pbField) varints(dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

func decodeProfile(b []byte) (*rawProfile, error) {
	fields, err := pbFields(b)
	if err != nil {
		return nil, err
	}
	p := &rawProfile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	for _, f := range fields {
		switch f.num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var typ int64
			for _, g := range sub {
				if g.num == 1 {
					typ = int64(g.v)
				}
			}
			p.sampleTypes = append(p.sampleTypes, typ)
		case 2: // sample: Sample{location_id=1, value=2}
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s rawSample
			var vals []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					if s.locs, err = g.varints(s.locs); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = g.varints(vals); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location: Location{id=1, line=4 Line{function_id=1}}
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					line, err := pbFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			p.locs[id] = fns
		case 5: // function: Function{id=1, name=2}
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(f.b))
		case 12: // period
			p.period = int64(f.v)
		}
	}
	return p, nil
}
