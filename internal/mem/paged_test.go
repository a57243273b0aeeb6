package mem

import "testing"

// TestPagedZeroUntilWritten checks that every index reads as the zero
// value until stored, that Peek never backs a page, and that indices
// far apart (the 2^27-line stride of glibc arenas, the last index below
// PagedLen) land in independent pages.
func TestPagedZeroUntilWritten(t *testing.T) {
	var p Paged[int32]
	idx := []uint64{0, 1, pagedPageLen - 1, pagedPageLen, 1 << 22, 1 << 27, 2 << 27, 3<<27 + 5, PagedLen - 1}
	for _, i := range idx {
		if v := p.Get(i); v != 0 {
			t.Fatalf("Get(%#x) = %d before any store, want 0", i, v)
		}
		if p.Peek(i) != nil {
			t.Fatalf("Peek(%#x) backed a page", i)
		}
	}
	for k, i := range idx {
		p.Set(i, int32(k+1))
	}
	for k, i := range idx {
		if v := p.Get(i); v != int32(k+1) {
			t.Fatalf("Get(%#x) = %d, want %d", i, v, k+1)
		}
		if q := p.Peek(i); q == nil || *q != int32(k+1) {
			t.Fatalf("Peek(%#x) = %v, want pointer to %d", i, q, k+1)
		}
	}
	if v := p.Get(2); v != 0 {
		t.Fatalf("neighbour of a stored index reads %d, want 0", v)
	}
	if q := p.Peek(2); q == nil {
		t.Fatal("Peek on a backed page returned nil")
	}
}

// TestPagedAtStable checks that At's pointer aliases the stored element
// across later page allocations.
func TestPagedAtStable(t *testing.T) {
	var p Paged[uint64]
	a := p.At(7)
	*a = 42
	for i := uint64(1); i < 64; i++ {
		p.Set(i<<pagedPageBits, i)
	}
	if *a != 42 || p.Get(7) != 42 {
		t.Fatalf("At pointer lost its value: %d / %d", *a, p.Get(7))
	}
}

// TestPagedOutOfRange pins that an index past PagedLen panics rather
// than aliasing a lower index.
func TestPagedOutOfRange(t *testing.T) {
	var p Paged[byte]
	defer func() {
		if recover() == nil {
			t.Fatal("Get(PagedLen) did not panic")
		}
	}()
	p.Get(PagedLen)
}
