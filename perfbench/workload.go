package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/harness"
	"repro/internal/intset"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/vtime"
)

// defaultSeed is the seed whose digests are recorded in digests.
const defaultSeed = 1

// stampReps pins fig7's quick repetition count, so the sweep's virtual
// cycles can be recovered from the per-configuration means it prints.
const stampReps = 2

// digests holds each workload's virtual-result digest per input at
// defaultSeed, recorded from runs of the program, never from the
// committed results/ files. A host-only change must leave every one of
// them unchanged.
var digests = map[string][]string{
	"list-8t": {
		"ad55459a4ce6316ab7b11e23b7303f85",
		"6b788e1359d16e0603fac78579c0c38e",
		"96de57c047d99652fc6b7e4178a0fa67",
		"fac657797278d2dda5afa77cd939b270",
		"d7ac3ff832eb8b428eb3f7da911e6e97",
		"9e46d1370b9195f85f37a49bdcc40564",
		"7ec3f2b86f77797135426a2757a3d85d",
		"01a322490057c2b6584d21db459b41d5",
	},
	"hashset-1t": {
		"6c024d8ab2f74aaf242d14081234ff27",
		"8acdc45420a71660a81f1530c1f50831",
		"71c00234b89cb99378b3f47503eb1f35",
		"ad7acc3602d01fb812d6af4b29d4ae8d",
		"da68b017e642a410ecc1cb0a47fa2859",
		"d40cc58398345db60e103ec05daa7713",
		"012d4fce3b384498f9e6be5200f58b8a",
		"6cdb6622b71a90a09c674a7aa790a66b",
	},
	"stamp-sweep": {"02685914d021cc73aacfa8f54e04778d"},
}

// workload is one closed loop: an iteration is one intset cell or one
// fig7 sweep, and the next starts only when the previous has returned.
type workload struct {
	name  string
	procs int            // GOMAXPROCS for the run
	cell  *intset.Config // the single cell, or nil for the sweep
	// inputs is how many seeded inputs a run rotates through. One
	// cell's virtual work varies by a fifth between seeds, so a cell run
	// covers eight; one sweep already spans 192 seeded cells.
	inputs int
}

var workloads = []workload{
	{name: "list-8t", procs: 1, cell: &intset.Config{
		Kind: intset.LinkedList, Allocator: "glibc", Threads: 8,
		InitialSize: 768, KeyRange: 1536, UpdatePct: 60, OpsPerThread: 120,
	}, inputs: 8},
	{name: "hashset-1t", procs: 1, cell: &intset.Config{
		Kind: intset.HashSet, Allocator: "glibc", Threads: 1,
		InitialSize: 2048, KeyRange: 4096, UpdatePct: 60, OpsPerThread: 300,
		HashBuckets: 128 << 10,
	}, inputs: 8},
	{name: "stamp-sweep", procs: 2, inputs: 1},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// inputSeed is the seed of input k of a run at seed.
func (w *workload) inputSeed(seed uint64, k int) uint64 {
	return seed*uint64(w.inputs) + uint64(k)
}

// outcome is what one iteration produced.
type outcome struct {
	digest string
	cells  int    // cells the iteration attempted
	bad    int    // cells whose status was not ok
	cycles uint64 // virtual cycles the iteration simulated
	res    intset.Result
	sweep  sweep.Stats
}

// iterate runs one iteration. allocator, when set, replaces the cell's
// allocator name (the traced run's timing wrapper).
func (w *workload) iterate(seed uint64, allocator string) outcome {
	if w.cell == nil {
		return runSweep(seed)
	}
	cfg := *w.cell
	cfg.Seed = seed
	if allocator != "" {
		cfg.Allocator = allocator
	}
	res, err := intset.Run(cfg)
	if err != nil {
		return outcome{digest: "error: " + err.Error(), cells: 1, bad: 1}
	}
	o := outcome{digest: cellDigest(res), cells: 1, cycles: res.Cycles, res: res}
	if res.Status != obs.StatusOK {
		o.bad = 1
	}
	return o
}

// runSweep runs fig7 through the sweep scheduler at two jobs, uncached.
func runSweep(seed uint64) outcome {
	reps := stampReps
	spec := &harness.Spec{Seed: &seed, Reps: &reps}
	runs, stats := (&harness.Session{Spec: spec, Jobs: 2}).Run([]string{"fig7"})
	o := outcome{cells: stats.Cells, bad: stats.Errors, sweep: stats}
	run := runs[0]
	if run.Err != nil {
		// A failed cell leaves fig7 without a result; the error is the
		// digest, so every iteration of the run reports it.
		o.digest = "error: " + run.Err.Error()
		o.bad = max(o.bad, 1)
		return o
	}
	if st := run.Health.Status(); st != "" && st != obs.StatusOK {
		o.bad = max(o.bad, 1)
	}
	o.digest = sweepDigest(run.Result)
	// The series hold each configuration's mean modelled ms over the
	// repetitions; the session exposes no per-cell cycle count.
	var ms float64
	for _, s := range run.Result.Series {
		for _, y := range s.Y {
			ms += y * stampReps
		}
	}
	o.cycles = uint64(math.Round(ms * vtime.Frequency / 1e3))
	return o
}

// sweepDigest hashes fig7's printed table and, because the table shows
// each configuration's mean to four significant digits at most, the
// series' exact values too.
func sweepDigest(res *harness.Result) string {
	var buf bytes.Buffer
	harness.Print(&buf, res)
	for _, s := range res.Series {
		for _, xs := range [][]float64{s.X, s.Y, s.Err} {
			for _, x := range xs {
				buf.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
			}
		}
	}
	return hashBytes(buf.Bytes())
}

// cellDigest hashes one cell's virtual result: its cycles, STM, cache
// and allocator counters and its status. Zero counters are left out,
// so a counter added later with nothing to count keeps the digest.
func cellDigest(r intset.Result) string {
	doc := map[string]any{
		"cycles": r.Cycles,
		"tx":     nonZero(r.Tx),
		"cache":  nonZero(r.CacheTotal),
		"alloc":  nonZero(r.AllocStats),
		"status": r.Status,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err) // only plain counters are marshalled
	}
	return hashBytes(b)
}

// nonZero turns a struct of counters into a map without its zero
// fields; json.Marshal sorts map keys, so the encoding is canonical.
func nonZero(v any) map[string]any {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber() // keep 64-bit counters exact
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		panic(err)
	}
	for k, x := range m {
		if isZero(x) {
			delete(m, k)
		}
	}
	return m
}

func isZero(x any) bool {
	switch v := x.(type) {
	case json.Number:
		return v == "0"
	case string:
		return v == ""
	case []any:
		for _, e := range v {
			if !isZero(e) {
				return false
			}
		}
		return true
	}
	return x == nil
}

func hashBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:16])
}

// quantile is Python's statistics.quantiles "exclusive" method at p,
// the convention the benchmark's spread rule uses.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	switch {
	case j < 1:
		return s[0]
	case j >= n:
		return s[n-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}
