package mem

// Paged is a lazily backed array of T indexed by a uint64 below
// PagedLen (2^32); an index at or past it panics.
// It uses the Space's radix geometry — a 2^11-entry root of 2^11-entry
// directories — over pages of 1024 elements, so an index range never
// touched costs no host memory and every element reads as T's zero
// value until written. It is the one lazy-paging
// scheme for host-side mirrors of simulated state (the STM's per-ORT-
// entry diagnostics, cachesim's per-line coherence records); callers
// pick a zero value that means "untouched".
//
// Paged is not safe for concurrent use: its users run under the
// virtual-time engine's serialized execution. The zero value is an
// empty array ready for use.
type Paged[T any] struct {
	root [l1Size]*[l2Size]*[pagedPageLen]T
}

// Paged geometry: 2^10-element pages under two 2^11-entry levels cover
// PagedLen = 2^32 indices — every cache line below MaxAddr.
const (
	pagedPageBits = 10
	pagedPageLen  = 1 << pagedPageBits
	PagedLen      = uint64(1) << (pagedPageBits + l2Bits + l1Bits)
)

// Get returns element i, or T's zero value if its page was never
// backed.
func (p *Paged[T]) Get(i uint64) T {
	if pg := p.page(i); pg != nil {
		return pg[i&(pagedPageLen-1)]
	}
	var zero T
	return zero
}

// Peek returns a pointer to element i, or nil if its page was never
// backed. It never allocates.
func (p *Paged[T]) Peek(i uint64) *T {
	if pg := p.page(i); pg != nil {
		return &pg[i&(pagedPageLen-1)]
	}
	return nil
}

// At returns a pointer to element i, backing its page (zero-filled) on
// first touch. The pointer stays valid for the array's lifetime.
func (p *Paged[T]) At(i uint64) *T {
	if pg := p.page(i); pg != nil {
		return &pg[i&(pagedPageLen-1)]
	}
	return p.back(i)
}

// Set stores v as element i.
func (p *Paged[T]) Set(i uint64, v T) { *p.At(i) = v }

// page returns the backing page of index i, or nil. An index at or past
// PagedLen panics with an index-out-of-range error.
func (p *Paged[T]) page(i uint64) *[pagedPageLen]T {
	if dir := p.root[i>>(pagedPageBits+l2Bits)]; dir != nil {
		return dir[(i>>pagedPageBits)&l2Mask]
	}
	return nil
}

// back allocates the missing directory and page of index i: At's slow
// path.
func (p *Paged[T]) back(i uint64) *T {
	dir := p.root[i>>(pagedPageBits+l2Bits)]
	if dir == nil {
		dir = new([l2Size]*[pagedPageLen]T)
		p.root[i>>(pagedPageBits+l2Bits)] = dir
	}
	pg := dir[(i>>pagedPageBits)&l2Mask]
	if pg == nil {
		pg = new([pagedPageLen]T)
		dir[(i>>pagedPageBits)&l2Mask] = pg
	}
	return &pg[i&(pagedPageLen-1)]
}
