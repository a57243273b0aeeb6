package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/cachesim"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/stm"
	"repro/internal/vtime"
)

// timedPrefix names the timing wrappers this benchmark registers.
const timedPrefix = "perfbench-"

// allocTimes holds the host ns of every wrapped Malloc and Free. The
// engine runs one simulated thread at a time and hands off through
// channels, so the slices need no lock.
var allocTimes struct{ malloc, free []float64 }

// init registers a timing wrapper for each cell workload's allocator.
func init() {
	seen := map[string]bool{}
	for _, w := range workloads {
		if w.cell == nil || seen[w.cell.Allocator] {
			continue
		}
		name := w.cell.Allocator
		seen[name] = true
		alloc.Register(timedPrefix+name, func(space *mem.Space, threads int) alloc.Allocator {
			return timedAlloc{alloc.MustNew(name, space, threads)}
		})
	}
}

// timedAlloc forwards to an allocator model and times each Malloc and
// Free on the host clock. The model sees the same calls in the same
// order, so nothing virtual changes; the traced run's digests check it.
type timedAlloc struct{ alloc.Allocator }

func (a timedAlloc) Malloc(th *vtime.Thread, size uint64) mem.Addr {
	start := time.Now()
	p := a.Allocator.Malloc(th, size)
	allocTimes.malloc = append(allocTimes.malloc, float64(time.Since(start)))
	return p
}

func (a timedAlloc) Free(th *vtime.Thread, addr mem.Addr) {
	start := time.Now()
	a.Allocator.Free(th, addr)
	allocTimes.free = append(allocTimes.free, float64(time.Since(start)))
}

// span is one timed call into the program, kept in memory and written
// out when the run ends.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 at top level
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = int64(time.Since(t.origin))
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// shape is one world a workload builds: an allocator and a thread count.
type shape struct {
	allocator string
	threads   int
}

// shapes are the worlds a run sets up and the traced run times the
// constructors on: the cell's own, or each of the sweep's allocators at
// fig7's largest thread count. Building all 32 of the sweep's shapes
// doubled set-up time and widened its range between runs.
func (w *workload) shapes() []shape {
	if w.cell != nil {
		return []shape{{w.cell.Allocator, w.cell.Threads}}
	}
	var out []shape
	for _, a := range harness.Allocators() {
		out = append(out, shape{a, 8})
	}
	return out
}

// constructors are the five public world constructors, in build order,
// with the layer each is charged to.
var constructors = []struct{ layer, call string }{
	{"mem", "mem.NewSpace"},
	{"alloc", "alloc.New"},
	{"cachesim", "cachesim.New"},
	{"vtime", "vtime.NewEngine"},
	{"stm", "stm.New"},
}

// buildWorld constructs one world of shape sh with the constructors, in
// their order, and calls lap after each one.
func buildWorld(sh shape, lap func()) error {
	space := mem.NewSpace()
	lap()
	a, err := alloc.New(sh.allocator, space, sh.threads)
	lap()
	if err != nil {
		return err
	}
	cache := cachesim.New(cachesim.DefaultCores)
	lap()
	engine := vtime.NewEngine(space, sh.threads, vtime.Config{Cache: cache})
	lap()
	st := stm.New(space, stm.Config{Shift: stm.DefaultShift, Allocator: a})
	lap()
	runtime.KeepAlive(engine)
	runtime.KeepAlive(st)
	return nil
}

// timeConstructors builds every world shape reps times and returns, per
// constructor layer, the median over reps of its mean host µs per world.
func (t *tracer) timeConstructors(shapes []shape, reps int) (map[string]float64, error) {
	perRep := map[string][]float64{}
	for rep := 0; rep < reps; rep++ {
		sums := map[string]time.Duration{}
		for _, sh := range shapes {
			world := t.begin(fmt.Sprintf("world %s/t%d", sh.allocator, sh.threads), -1)
			i := 0
			id := t.begin(constructors[0].call, world)
			err := buildWorld(sh, func() {
				sums[constructors[i].layer] += t.end(id)
				if i++; i < len(constructors) {
					id = t.begin(constructors[i].call, world)
				}
			})
			t.end(world)
			if err != nil {
				return nil, err
			}
		}
		for _, c := range constructors {
			perRep[c.layer] = append(perRep[c.layer], float64(sums[c.layer])/1e3/float64(len(shapes)))
		}
	}
	out := map[string]float64{}
	for _, c := range constructors {
		out[c.layer] = quantile(perRep[c.layer], 0.5)
	}
	return out, nil
}

// traced is the per-layer run. The untraced warm-up and half give each
// input its digest reference and the baseline iteration time; the
// traced half then runs under the CPU profiler, inside spans and, for a
// single cell, through the timing wrapper allocator. Every traced
// iteration must match its input's untraced digest.
func (r *runner) traced(dur time.Duration, outDir string) (result, error) {
	r.once("")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, err := r.loop(dur/2, "", nil)
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&m1)

	allocator := ""
	name := "harness.Session.Run"
	if r.w.cell != nil {
		allocator = timedPrefix + r.w.cell.Allocator
		name = "intset.Run"
	}
	t := &tracer{origin: time.Now()}
	var profile bytes.Buffer
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return result{}, fmt.Errorf("start CPU profile: %w", err)
	}
	var ms []float64
	var inCells, cellWall, poolWall time.Duration
	var executed int
	loopStart := time.Now()
	for len(ms) < max(3, len(r.refs)) || time.Since(loopStart) < dur/2 {
		id := t.begin(name, -1)
		_, o := r.once(allocator)
		d := t.end(id)
		inCells += d
		ms = append(ms, float64(d)/1e6)
		if r.w.cell == nil {
			cellWall += o.sweep.CellWall
			poolWall += o.sweep.Wall * time.Duration(o.sweep.Jobs)
			executed += o.sweep.Executed
		} else {
			executed++
		}
	}
	loopWall := time.Since(loopStart)
	pprof.StopCPUProfile()

	setup, err := t.timeConstructors(r.w.shapes(), 5)
	if err != nil {
		return result{}, err
	}
	layers, err := foldProfile(profile.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("fold CPU profile: %w", err)
	}
	if outDir != "" {
		if err := t.write(outDir, r, profile.Bytes()); err != nil {
			return result{}, err
		}
	}

	n := float64(len(ms))
	m := map[string]metric{}
	for _, l := range layerNames {
		m["self_ms."+l] = metric{layers[l] / n / 1e6, "ms"}
	}
	for _, c := range constructors {
		m["setup."+c.layer+"_us"] = metric{setup[c.layer], "us"}
	}
	busy := float64(inCells) / float64(loopWall)
	if r.w.cell == nil {
		busy = float64(cellWall) / float64(poolWall)
	}
	m["sweep.busy_ratio"] = metric{busy, "ratio"}
	m["sweep.cells_executed"] = metric{float64(executed) / n, "count"}
	m["alloc.malloc_ns"] = metric{median(allocTimes.malloc), "ns"}
	m["alloc.free_ns"] = metric{median(allocTimes.free), "ns"}
	plainN := float64(len(plain))
	m["host.allocs_per_iter"] = metric{float64(m1.Mallocs-m0.Mallocs) / plainN, "count"}
	m["host.gc_cycles_per_iter"] = metric{float64(m1.NumGC-m0.NumGC) / plainN, "count"}
	m["trace.iter_ms"] = metric{median(ms), "ms"}
	m["trace_overhead_ratio"] = metric{median(ms) / median(plain), "ratio"}

	// Deterministic counts: per-iteration means over the run's inputs,
	// so they depend on the seed alone, never on how many iterations fit.
	var cache cachesim.CoreStats
	var starts, commits, loads, stores uint64
	var as alloc.Stats
	for _, o := range r.outs {
		cache.Accesses += o.res.CacheTotal.Accesses
		cache.L1Misses += o.res.CacheTotal.L1Misses
		cache.CohMisses += o.res.CacheTotal.CohMisses
		starts += o.res.Tx.Starts
		commits += o.res.Tx.Commits
		loads += o.res.Tx.LoadsTotal
		stores += o.res.Tx.StoresTotal
		as.Add(o.res.AllocStats)
	}
	inputs := float64(len(r.outs))
	perInput := func(x uint64) float64 { return float64(x) / inputs }
	m["vtime.sim_mcycles"] = metric{r.cycles() / 1e6, "Mcycles"}
	m["cachesim.accesses"] = metric{perInput(cache.Accesses), "count"}
	m["cachesim.l1_miss_ratio"] = metric{cache.L1MissRatio(), "ratio"}
	m["cachesim.coh_misses"] = metric{perInput(cache.CohMisses), "count"}
	m["stm.starts"] = metric{perInput(starts), "count"}
	m["stm.commit_ratio"] = metric{perUnit(float64(commits), starts), "ratio"}
	m["stm.loads"] = metric{perInput(loads), "count"}
	m["stm.stores"] = metric{perInput(stores), "count"}
	m["alloc.mallocs"] = metric{perInput(as.Mallocs), "count"}
	m["alloc.frees"] = metric{perInput(as.Frees), "count"}
	m["alloc.lock_contended_ratio"] = metric{perUnit(float64(as.LockContended), as.LockAcquires), "ratio"}
	m["cachesim.host_ns_per_access"] = metric{perUnit(layers["cachesim"]/n*inputs, cache.Accesses), "ns"}
	m["stm.host_ns_per_tx"] = metric{perUnit(layers["stm"]/n*inputs, starts), "ns"}
	fmt.Printf("traced=%d untraced=%d profile_ms=%.1f digests=%s\n", len(ms), len(plain), layers.total()/1e6, strings.Join(r.refs, ","))
	return r.result(m), nil
}

// write saves the spans and the CPU profile under dir.
func (t *tracer) write(dir string, r *runner, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", r.w.name, r.seed))
	doc := struct {
		Spans    []span    `json:"spans"`
		MallocNs []float64 `json:"malloc_ns,omitempty"`
		FreeNs   []float64 `json:"free_ns,omitempty"`
	}{t.spans, allocTimes.malloc, allocTimes.free}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", profile, 0o644)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}

// perUnit divides x by a count, giving 0 where nothing was counted.
func perUnit(x float64, count uint64) float64 {
	if count == 0 {
		return 0
	}
	return x / float64(count)
}
