package main

import (
	"bytes"
	"testing"

	"repro/internal/harness"
	"repro/internal/stm"
	"repro/internal/vtime"
)

// TestDigestGate proves the gate both ways on hashset-1t, the quickest
// cell: every recorded digest reproduces, input 0 also through the
// timing wrapper, and a one-step change to the ORT shift (a change to
// the virtual model) no longer matches.
func TestDigestGate(t *testing.T) {
	w, err := findWorkload("hashset-1t")
	if err != nil {
		t.Fatal(err)
	}
	want := digests[w.name]
	if len(want) != w.inputs {
		t.Fatalf("%d recorded digests for %d inputs", len(want), w.inputs)
	}
	for k := range want {
		if got := w.iterate(w.inputSeed(defaultSeed, k), "").digest; got != want[k] {
			t.Errorf("input %d: digest %s, recorded %s", k, got, want[k])
		}
	}
	seed := w.inputSeed(defaultSeed, 0)
	if got := w.iterate(seed, timedPrefix+"glibc").digest; got != want[0] {
		t.Errorf("through the timing wrapper: digest %s, want %s", got, want[0])
	}
	shifted := *w
	cfg := *w.cell
	cfg.Shift = stm.DefaultShift + 1
	shifted.cell = &cfg
	if got := shifted.iterate(seed, "").digest; got == want[0] {
		t.Errorf("ORT shift %d gives the recorded digest %s; the gate cannot see it", cfg.Shift, got)
	}
}

// TestSweepDigestGate proves the gate on stamp-sweep: the recorded
// digest reproduces, and one more cycle per simulated mmap, a cost only
// the hoard, tbb and tcmalloc models charge and so only the sweep runs,
// no longer matches.
func TestSweepDigestGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig7 twice")
	}
	w, err := findWorkload("stamp-sweep")
	if err != nil {
		t.Fatal(err)
	}
	seed := w.inputSeed(defaultSeed, 0)
	base := w.iterate(seed, "")
	if want := digests[w.name][0]; base.digest != want {
		t.Fatalf("digest %s, recorded %s", base.digest, want)
	}
	saved := vtime.DefaultCost
	defer func() { vtime.DefaultCost = saved }()
	vtime.DefaultCost.OSMap++
	if got := w.iterate(seed, "").digest; got == base.digest {
		t.Errorf("OSMap cost +1 gives the recorded digest %s; the gate cannot see it", got)
	}
}

// TestSweepDigestExact shows that the sweep digest sees a change to a
// configuration's mean that fig7's printed table does not show.
func TestSweepDigestExact(t *testing.T) {
	res := &harness.Result{ID: "fig7", Title: "t", Series: []harness.Series{
		{Label: "a", X: []float64{1, 2}, Y: []float64{1.23456789, 2}, Err: []float64{0.01, 0}},
	}}
	nudged := *res
	nudged.Series = []harness.Series{res.Series[0]}
	nudged.Series[0].Y = []float64{1.23456789 * (1 + 1e-9), 2}
	var a, b bytes.Buffer
	harness.Print(&a, res)
	harness.Print(&b, &nudged)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("the nudge shows in the printed table:\n%s\n%s", a.String(), b.String())
	}
	if sweepDigest(res) == sweepDigest(&nudged) {
		t.Error("a change below the printed precision keeps the digest")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2", "repro/internal/cachesim.(*Hierarchy).lineOf", "repro/internal/vtime.(*Thread).Load"}, "cachesim"},
		{[]string{"runtime.memclrNoHeapPointers", "repro/internal/stm.(*u64Table).reset", "repro/internal/stm.(*STM).Atomic"}, "stm"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/stm.New", "repro/internal/intset.Run"}, "setup"},
		{[]string{"runtime.futex", "runtime.chansend", "repro/internal/vtime.(*Thread).yield"}, "sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"repro/internal/alloc/glibc.(*Glibc).Malloc", "repro/perfbench.timedAlloc.Malloc"}, "alloc"},
		{[]string{"repro/internal/harness.(*Session).Run"}, "sweep"},
		{[]string{"repro/internal/stamp/yada.run"}, "workload"},
		{[]string{"repro/internal/obs.(*Recorder).push"}, "other"},
		{[]string{"runtime.sysmon"}, "runtime"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestQuantile pins the Python statistics.quantiles exclusive method.
func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
}
