package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerNames are the layers host CPU time is folded into.
var layerNames = []string{
	"vtime", "cachesim", "stm", "alloc", "mem", "txstruct", "workload",
	"sweep", "setup", "gc", "sched", "runtime", "bench", "other",
}

// packageLayers maps a repro package path prefix to its layer.
var packageLayers = []struct{ prefix, layer string }{
	{"repro/internal/vtime", "vtime"},
	{"repro/internal/cachesim", "cachesim"},
	{"repro/internal/stm", "stm"},
	{"repro/internal/alloc", "alloc"},
	{"repro/internal/mem", "mem"},
	{"repro/internal/txstruct", "txstruct"},
	{"repro/internal/intset", "workload"},
	{"repro/internal/stamp", "workload"},
	{"repro/internal/sim", "workload"}, // the workloads' random streams
	{"repro/internal/sweep", "sweep"},
	{"repro/internal/harness", "sweep"},
	{"repro/perfbench", "bench"},
}

// setupFuncs are the world constructors; time under them is set-up.
var setupFuncs = map[string]bool{
	"repro/internal/mem.NewSpace":    true,
	"repro/internal/alloc.New":       true,
	"repro/internal/alloc.MustNew":   true,
	"repro/internal/cachesim.New":    true,
	"repro/internal/vtime.NewEngine": true,
	"repro/internal/stm.New":         true,
}

// gcFuncs mark garbage-collector work anywhere on a stack.
var gcFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.deductSweepCredit", "runtime.sweepone",
}

// schedFuncs mark goroutine handoff: channel operations, parking and
// the scheduler, when they lie between a sample's leaf and its nearest
// repro caller.
var schedFuncs = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m",
	"runtime.schedule", "runtime.findRunnable", "runtime.mcall",
	"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.futex",
	"runtime.notesleep", "runtime.notewakeup", "runtime.semasleep",
	"runtime.semawakeup", "runtime.runqgrab", "runtime.goexit0",
	"runtime.newproc", "runtime.gosched", "runtime.goschedImpl",
	"runtime.semacquire", "runtime.semrelease", "sync.runtime_Sem",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// layerOf classifies one sample's stack, leaf first. GC work and
// constructor frames win wherever they sit; otherwise runtime helpers
// (map access, memclr, mallocgc, hashing) are charged to the nearest
// repro caller, unless a handoff frame comes first.
func layerOf(stack []string) string {
	for _, f := range stack {
		if hasAnyPrefix(f, gcFuncs) {
			return "gc"
		}
	}
	for _, f := range stack {
		if setupFuncs[f] {
			return "setup"
		}
	}
	for _, f := range stack {
		if hasAnyPrefix(f, schedFuncs) {
			return "sched"
		}
		if strings.HasPrefix(f, "repro/") {
			pkg := packagePath(f)
			for _, pl := range packageLayers {
				if pkg == pl.prefix || strings.HasPrefix(pkg, pl.prefix+"/") {
					return pl.layer
				}
			}
			return "other"
		}
	}
	return "runtime"
}

// packagePath cuts a function name at the first dot after its last
// slash: "repro/internal/alloc/glibc.(*Glibc).Malloc" gives
// "repro/internal/alloc/glibc".
func packagePath(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerTimes is host CPU ns per layer.
type layerTimes map[string]float64

func (l layerTimes) total() float64 {
	var s float64
	for _, v := range l {
		s += v
	}
	return s
}

// foldProfile decodes a gzipped pprof CPU profile and sums its CPU ns
// per layer.
func foldProfile(gz []byte) (layerTimes, error) {
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
		return nil, err
	}
	out := layerTimes{}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				stack = append(stack, p.str(p.functions[fn]))
			}
		}
		if len(s.values) < 2 {
			return nil, errors.New("CPU profile sample without a nanosecond value")
		}
		out[layerOf(stack)] += float64(s.values[1])
	}
	return out, nil
}

// The subset of profile.proto the fold needs.
type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofData struct {
	samples   []pprofSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

func (p *pprofData) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// field is one decoded protobuf field: a varint or a length-delimited
// payload.
type field struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

// fields splits a protobuf message into its fields.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.varint, n = uvarint(b)
			if n <= 0 {
				return nil, errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bad length")
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// varints reads a repeated integer field, packed or not.
func varints(f field) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.varint}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func decodeProfile(raw []byte) (*pprofData, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &pprofData{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2: // sample
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s pprofSample
			for _, sf := range sub {
				vs, err := varints(sf)
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range sub {
				switch lf.num {
				case 1:
					id = lf.varint
				case 4: // line
					ls, err := fields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, x := range ls {
						if x.num == 1 {
							fns = append(fns, x.varint)
						}
					}
				}
			}
			p.locations[id] = fns
		case 5: // function
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range sub {
				switch ff.num {
				case 1:
					id = ff.varint
				case 2:
					name = int64(ff.varint)
				}
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.bytes))
		}
	}
	return p, nil
}
