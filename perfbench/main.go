// Command perfbench measures the host time the simulator spends to
// produce its virtual results, on three fixed workloads, and checks
// every result it times against a digest.
//
//	perfbench -workload list-8t -seed 1 -seconds 10 -trace 0
//
// Each run warms up, then repeats one closed-loop iteration (one intset
// cell, or one fig7 sweep) for the given seconds. It prints a
// provenance line and a summary line, then one JSON object as the last
// line of stdout: end-to-end metrics with -trace 0, per-layer metrics
// with -trace 1.
// With -setup-probe it exits as soon as it is set up for its first
// iteration; an untraced run times such probes as its setup_s.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "list-8t, hashset-1t or stamp-sweep")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "seconds of timed iterations")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	out := flag.String("out", "", "directory for the traced run's spans and CPU profile")
	probe := flag.Int64("setup-probe", 0, "the Unix ns this process was started at: print the ns until it is set up, then exit")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(w.procs)
	if *probe != 0 {
		if _, err := newRunner(w, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(time.Now().UnixNano() - *probe)
		return
	}

	fmt.Println(provenance(w))
	if err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures and prints the result.
func run(w *workload, seed uint64, dur time.Duration, traced bool, outDir string) error {
	r, err := newRunner(w, seed)
	if err != nil {
		return err
	}
	var res result
	if traced {
		res, err = r.traced(dur, outDir)
	} else {
		res, err = r.untraced(dur)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// setup_s is the median of setupProbes fresh processes, started in
// equal bursts at setupPoints evenly spaced times of the timed loop, so
// that it spans the same window of host speed as the iteration times.
const (
	setupProbes = 16
	setupPoints = 8
)

// setupTimes starts n fresh processes one after another and returns,
// for each, the wall seconds from starting it until it is set up for
// its first iteration: exec, runtime and package initialisation, flag
// parsing and newRunner. Each process reads the clock itself when set
// up, so its exit and this process's wake-up are left out.
func setupTimes(w *workload, seed uint64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	times := make([]float64, n)
	for i := range times {
		start := time.Now().UnixNano()
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-setup-probe", strconv.FormatInt(start, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		times[i] = float64(ns) / 1e9
	}
	return times, nil
}

// runner rotates through the workload's inputs and holds each one's
// digest reference and latest outcome, and the run's cell accounting.
type runner struct {
	w         *workload
	seed      uint64
	refs      []string  // expected digest per input; "" until its first run
	outs      []outcome // latest outcome per input
	next      int       // the input the next iteration runs
	attempted int
	failed    int
}

// newRunner sets a run up: it builds a world of each of the workload's
// shapes, which checks that each constructor accepts it, and takes the recorded digests as references at the default seed; at
// any other seed each input's first run becomes its reference.
func newRunner(w *workload, seed uint64) (*runner, error) {
	for _, sh := range w.shapes() {
		if err := buildWorld(sh, func() {}); err != nil {
			return nil, err
		}
	}
	r := &runner{w: w, seed: seed, refs: make([]string, w.inputs), outs: make([]outcome, w.inputs)}
	if seed == defaultSeed {
		copy(r.refs, digests[w.name])
	}
	return r, nil
}

// once runs and checks one iteration on the next input, returning its
// host time and outcome.
func (r *runner) once(allocator string) (time.Duration, outcome) {
	k := r.next
	r.next = (k + 1) % len(r.refs)
	start := time.Now()
	o := r.w.iterate(r.w.inputSeed(r.seed, k), allocator)
	d := time.Since(start)
	if r.refs[k] == "" {
		r.refs[k] = o.digest
	}
	r.attempted += o.cells
	if o.digest != r.refs[k] {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d input %d: digest %s, want %s\n", r.w.name, r.seed, k, o.digest, r.refs[k])
		o.bad = o.cells
	}
	r.failed += o.bad
	r.outs[k] = o
	return d, o
}

// loop repeats iterations until dur has passed and every input has run
// at least once, and returns their host times in ms. Given setup, it
// also takes the set-up probes between iterations and appends their
// times to it.
func (r *runner) loop(dur time.Duration, allocator string, setup *[]float64) ([]float64, error) {
	var ms []float64
	minIters := max(3, len(r.refs))
	points := 0
	for start := time.Now(); time.Since(start) < dur || len(ms) < minIters; {
		if setup != nil && points < setupPoints && time.Since(start) >= dur*time.Duration(points)/setupPoints {
			runtime.GC() // no collection of this heap may overlap a probe
			t, err := setupTimes(r.w, r.seed, setupProbes/setupPoints)
			if err != nil {
				return nil, err
			}
			*setup = append(*setup, t...)
			points++
		}
		d, _ := r.once(allocator)
		ms = append(ms, float64(d)/1e6)
	}
	return ms, nil
}

// cycles is the mean virtual cycles of one iteration over the inputs.
func (r *runner) cycles() float64 {
	var sum float64
	for _, o := range r.outs {
		sum += float64(o.cycles)
	}
	return sum / float64(len(r.outs))
}

func (r *runner) result(metrics map[string]metric) result {
	return result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
}

// untraced measures the end-to-end metrics.
func (r *runner) untraced(dur time.Duration) (result, error) {
	r.once("") // warm-up: caches, heap and page tables settle
	var before, after runtime.MemStats
	var setup []float64
	runtime.ReadMemStats(&before)
	ms, err := r.loop(dur, "", &setup)
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&after)
	n := float64(len(ms))
	p50 := quantile(ms, 0.5)
	fmt.Printf("samples=%d ms_min=%.3f ms_max=%.3f digests=%s\n",
		len(ms), slices.Min(ms), slices.Max(ms), strings.Join(r.refs, ","))
	return r.result(map[string]metric{
		"iter_ms_p50":            {p50, "ms"},
		"iter_ms_p75":            {quantile(ms, 0.75), "ms"},
		"sim_mcycles_per_s":      {r.cycles() / 1e6 / (p50 / 1e3), "Mcycles/s"},
		"host_alloc_mb_per_iter": {float64(after.TotalAlloc-before.TotalAlloc) / n / (1 << 20), "MiB"},
		"peak_rss_mb":            {peakRSS(), "MiB"},
		"setup_s":                {quantile(setup, 0.5), "s"},
	}), nil
}

// peakRSS reads the process's high-water resident set, VmHWM.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// provenance names the host every result was measured on.
func provenance(w *workload) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s workload=%s model=unvalidated-against-hardware",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.name)
}
