package stm

import (
	"runtime"
	"testing"

	"repro/internal/alloc"
	"repro/internal/cachesim"
	"repro/internal/mem"
	"repro/internal/vtime"
)

// TestSteadyStateAllocBudget pins the host allocations of the STM hot
// path: once a thread's transaction descriptor has warmed up (read/
// write/undo slices, open-addressing tables, lock records all at
// capacity), a begin/load/store/commit cycle must not allocate on the
// host at all. Any regression here multiplies across every simulated
// transaction of every sweep cell.
func TestSteadyStateAllocBudget(t *testing.T) {
	space := mem.NewSpace()
	s := New(space, Config{})
	th := vtime.Solo(space, 0, nil)
	words := space.MustMap(mem.PageSize, 0)

	body := func(tx *Tx) {
		for i := 0; i < 16; i++ {
			a := words + mem.Addr(i*8)
			tx.Store(a, tx.Load(a)+1)
		}
	}
	// Warm up: grow the descriptor's slices and tables to capacity.
	for i := 0; i < 32; i++ {
		s.Atomic(th, body)
	}
	if avg := testing.AllocsPerRun(100, func() { s.Atomic(th, body) }); avg > 0 {
		t.Errorf("steady-state begin/load/store/commit allocates %.1f objects/tx, want 0", avg)
	}
}

// TestSteadyStateAllocBudgetWithMalloc extends the budget to the
// transactional allocation path (Malloc + Free + quarantine): the
// simulated allocator may tick virtual time, but the host side must
// stay allocation-free once warm.
func TestSteadyStateAllocBudgetWithMalloc(t *testing.T) {
	for _, pooling := range []Pooling{PoolNone, PoolCache, PoolReuse, PoolBatch} {
		t.Run(pooling.String(), func(t *testing.T) {
			space := mem.NewSpace()
			a := alloc.MustNew("tbb", space, 1)
			s := New(space, Config{Allocator: a, Pooling: pooling})
			th := vtime.Solo(space, 0, nil)

			body := func(tx *Tx) {
				a := tx.Malloc(48)
				tx.Store(a, 7)
				tx.Free(a, 48)
			}
			for i := 0; i < 64; i++ {
				s.Atomic(th, body)
			}
			// The epoch quarantine batches frees; allow the amortized
			// slice churn of its drain but nothing per-transaction.
			if avg := testing.AllocsPerRun(100, func() { s.Atomic(th, body) }); avg > 0.5 {
				t.Errorf("steady-state malloc/free tx allocates %.2f objects/tx, want ~0", avg)
			}
		})
	}
}

// nopConflict is a ConflictHook that discards every event.
type nopConflict struct{}

func (nopConflict) TxKind(int, string)       {}
func (nopConflict) TxConflict(ConflictEvent) {}
func (nopConflict) TxCommitted(int, string)  {}

// TestWorldHostBytesAllocBudget pins the host bytes a simulated world's
// STM and cache model cost to build: every sweep cell builds one, so
// eagerly sized mirrors of the 2^20-entry ORT or a pre-sized coherence
// map are paid per cell whether or not the run touches them. The lazy
// lock mirrors and line table leave cachesim's way arrays (≈3 MiB for
// eight cores) as the bulk; the budget holds with the conflict hook's
// lockTids mirror attached too.
func TestWorldHostBytesAllocBudget(t *testing.T) {
	const budget = 4 << 20
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"plain", Config{}}, {"conflict", Config{Conflict: nopConflict{}}}} {
		t.Run(tc.name, func(t *testing.T) {
			space := mem.NewSpace()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s := New(space, tc.cfg)
			h := cachesim.New(cachesim.DefaultCores)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(s)
			runtime.KeepAlive(h)
			got := after.TotalAlloc - before.TotalAlloc
			if got > budget {
				t.Errorf("stm.New + cachesim.New allocated %d bytes, budget %d", got, budget)
			}
			t.Logf("stm.New + cachesim.New: %d host bytes (budget %d)", got, budget)
		})
	}
}

// BenchmarkNew measures building one STM with the default 2^20-entry
// ORT, host allocations included. Each STM maps its ORT into a fresh
// space (built off the clock), as a world does.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		space := mem.NewSpace()
		b.StartTimer()
		New(space, Config{})
	}
}
