package stm

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestU64TableBasics exercises the empty-table path, overwrite
// semantics, and key 0 (a valid ORT index, representable through the
// +1 bias).
func TestU64TableBasics(t *testing.T) {
	var tb u64Table
	if _, ok := tb.get(7); ok {
		t.Fatal("empty table reported a hit")
	}
	tb.put(0, 11)
	tb.put(7, 42)
	if v, ok := tb.get(0); !ok || v != 11 {
		t.Fatalf("get(0) = %d, %v; want 11, true", v, ok)
	}
	tb.put(7, 43)
	if v, ok := tb.get(7); !ok || v != 43 {
		t.Fatalf("get(7) after overwrite = %d, %v; want 43, true", v, ok)
	}
	if tb.len() != 2 {
		t.Fatalf("n = %d after two distinct keys, want 2", tb.len())
	}
	if _, ok := tb.get(8); ok {
		t.Fatal("absent key reported a hit")
	}
}

// TestU64TableCollisionChain forces every key onto one probe chain:
// keys differing only above bit 32 of the Fibonacci product collide on
// small tables, so linear probing must keep them all distinct.
func TestU64TableCollisionChain(t *testing.T) {
	var tb u64Table
	tb.put(1, 0) // size the table
	mask := uint64(len(tb.keys) - 1)
	home := hashSlot(1, mask)
	var chain []uint64
	for k := uint64(2); len(chain) < 8; k++ {
		if hashSlot(k, mask) == home {
			chain = append(chain, k)
		}
	}
	for i, k := range chain {
		tb.put(k, int32(i+100))
	}
	for i, k := range chain {
		if v, ok := tb.get(k); !ok || v != int32(i+100) {
			t.Fatalf("colliding key %d = %d, %v; want %d, true", k, v, ok, i+100)
		}
	}
	if v, ok := tb.get(1); !ok || v != 0 {
		t.Fatalf("chain head displaced: get(1) = %d, %v", v, ok)
	}
}

// TestU64TableGrowth crosses several 3/4-load doublings and verifies
// every entry survives the rehashes.
func TestU64TableGrowth(t *testing.T) {
	var tb u64Table
	const n = 10 * tableMinSlots
	for i := uint64(0); i < n; i++ {
		tb.put(i*3, int32(i))
	}
	if len(tb.keys) < n {
		t.Fatalf("capacity %d after %d inserts; growth did not keep up", len(tb.keys), n)
	}
	if tb.len() != n {
		t.Fatalf("n = %d, want %d", tb.len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tb.get(i * 3); !ok || v != int32(i) {
			t.Fatalf("key %d lost across growth: %d, %v", i*3, v, ok)
		}
	}
}

// TestU64TableResetReuse models the steady-state transaction loop: fill,
// reset, refill. The backing arrays must be kept (no reallocation) and
// no stale entry may leak through the reset.
func TestU64TableResetReuse(t *testing.T) {
	var tb u64Table
	for i := uint64(0); i < 100; i++ {
		tb.put(i, int32(i))
	}
	capBefore := len(tb.keys)
	tb.reset()
	if tb.len() != 0 {
		t.Fatalf("n = %d after reset, want 0", tb.len())
	}
	if len(tb.keys) != capBefore {
		t.Fatalf("reset reallocated: capacity %d -> %d", capBefore, len(tb.keys))
	}
	for i := uint64(0); i < 100; i++ {
		if _, ok := tb.get(i); ok {
			t.Fatalf("stale entry %d visible after reset", i)
		}
	}
	for i := uint64(50); i < 60; i++ {
		tb.put(i, int32(i*2))
	}
	for i := uint64(0); i < 100; i++ {
		v, ok := tb.get(i)
		if in := i >= 50 && i < 60; ok != in {
			t.Fatalf("after refill, get(%d) hit=%v, want %v", i, ok, in)
		} else if in && v != int32(i*2) {
			t.Fatalf("after refill, get(%d) = %d, want %d", i, v, i*2)
		}
	}
	tb.reset()
	tb.reset() // idempotent on an already-empty table
	if tb.len() != 0 || len(tb.keys) != capBefore {
		t.Fatal("double reset changed state")
	}
}

// TestU64TableFuzz drives the table and a reference map with the same
// deterministic operation stream — puts, overwrites, gets of present
// and absent keys, periodic resets — and requires identical answers.
func TestU64TableFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var tb u64Table
	ref := map[uint64]int32{}
	// Small key range keeps the overwrite rate high.
	key := func() uint64 { return uint64(rng.Intn(2000)) * 0x10001 }
	for op := 0; op < 200000; op++ {
		switch r := rng.Intn(100); {
		case r < 55:
			k, v := key(), int32(rng.Intn(1<<20))
			tb.put(k, v)
			ref[k] = v
		case r < 99:
			k := key()
			v, ok := tb.get(k)
			rv, rok := ref[k]
			if ok != rok || v != rv {
				t.Fatalf("op %d: get(%d) = (%d, %v), reference (%d, %v)", op, k, v, ok, rv, rok)
			}
		default:
			tb.reset()
			clear(ref)
			requireEmpty(t, &tb, fmt.Sprintf("op %d", op))
		}
	}
	if tb.len() != len(ref) {
		t.Fatalf("final n = %d, reference holds %d", tb.len(), len(ref))
	}
}

// requireEmpty fails unless every key slot of tb is zero.
func requireEmpty(t *testing.T, tb *u64Table, when string) {
	t.Helper()
	if tb.len() != 0 {
		t.Fatalf("%s: len = %d after reset, want 0", when, tb.len())
	}
	for i, ek := range tb.keys {
		if ek != 0 {
			t.Fatalf("%s: slot %d still holds key %d after reset", when, i, ek-1)
		}
	}
}

// TestU64TableResetAfterGrowth drives the table and a reference map
// through the pattern that made reset cost the table's capacity: one
// large transaction (a ≥200k-key fill that grows the table to 2^19
// slots) followed by thousands of small ones (1–16 keys each), with one
// mid-stream cycle large enough to grow the table again. Every answer
// must match the map, and after every reset no key slot may be non-zero
// — the slot-list reset must clear exactly what was filled.
func TestU64TableResetAfterGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var tb u64Table
	ref := map[uint64]int32{}
	key := func() uint64 { return rng.Uint64() >> uint(16*rng.Intn(3)) }
	check := func(cycle int) {
		for k, rv := range ref {
			if v, ok := tb.get(k); !ok || v != rv {
				t.Fatalf("cycle %d: get(%d) = (%d, %v), reference (%d, true)", cycle, k, v, ok, rv)
			}
		}
		for i := 0; i < 4; i++ {
			k := key()
			v, ok := tb.get(k)
			if rv, rok := ref[k]; ok != rok || v != rv {
				t.Fatalf("cycle %d: get(%d) = (%d, %v), reference (%d, %v)", cycle, k, v, ok, rv, rok)
			}
		}
	}
	fill := func(n int) {
		for i := 0; i < n; i++ {
			k, v := key(), int32(rng.Intn(1<<20))
			tb.put(k, v)
			ref[k] = v
		}
	}

	fill(200_000)
	check(-1)
	if len(tb.keys) < 1<<19 {
		t.Fatalf("200k-key fill left %d slots, want ≥ 2^19", len(tb.keys))
	}
	tb.reset()
	ref = map[uint64]int32{}
	requireEmpty(t, &tb, "after the large fill")

	const cycles, growAt = 2000, 1500
	for c := 0; c < cycles; c++ {
		n := 1 + rng.Intn(16)
		slots := len(tb.keys)
		if c == growAt {
			// One cycle past 3/4 load grows the table mid-stream.
			n = slots/4*3 + 1024
		}
		fill(n)
		if c == growAt && len(tb.keys) <= slots {
			t.Fatalf("cycle %d: %d puts did not grow the table past %d slots", c, n, slots)
		}
		check(c)
		if tb.len() != len(ref) {
			t.Fatalf("cycle %d: len = %d, reference holds %d", c, tb.len(), len(ref))
		}
		tb.reset()
		ref = map[uint64]int32{} // clear() would cost the map its grown capacity
		requireEmpty(t, &tb, fmt.Sprintf("cycle %d", c))
	}
}

// BenchmarkTableResetAfterGrowth measures the steady-state cycle of a
// small transaction (8 keys put, probed and reset) on a table an
// earlier 200k-key transaction grew to 2^19 slots. The cost must track
// the 8 keys, not the capacity.
func BenchmarkTableResetAfterGrowth(b *testing.B) {
	var tb u64Table
	for k := uint64(0); k < 200_000; k++ {
		tb.put(k*0x10001, int32(k))
	}
	tb.reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i) * 8
		for k := base; k < base+8; k++ {
			tb.put(k, int32(k))
		}
		for k := base; k < base+8; k++ {
			if _, ok := tb.get(k); !ok {
				b.Fatal("lost key")
			}
		}
		tb.reset()
	}
}
