// Package cachesim models the memory hierarchy of the paper's machine
// (Table 2): one 32 KiB, 8-way, 64-byte-line L1 data cache per core and
// two 6 MiB, 24-way unified L2 caches, each shared by one four-core
// socket, with an invalidation-based coherence protocol between the L1s.
//
// The model is consulted online by the virtual-time engine: every
// simulated memory access is classified (L1 hit, L2 hit, other-socket
// L2, memory; plus coherence invalidations) and the classification both
// increments the PAPI-style counters the paper reports and determines
// the access's latency contribution to the accessing thread's virtual
// clock.
//
// The simulator is single-threaded by construction: the virtual-time
// engine serializes all execution, so no internal locking is needed and
// results are deterministic.
package cachesim

import "repro/internal/mem"

// LineShift/LineSize define the 64-byte cache line.
const (
	LineShift = 6
	LineSize  = 1 << LineShift
)

// Geometry of the paper's Xeon E5405 (Table 2).
const (
	l1Sets       = 64 // 32 KiB / 64 B / 8 ways
	l1Ways       = 8
	l2Sets       = 4096 // 6 MiB / 64 B / 24 ways
	l2Ways       = 24
	CoresPerL2   = 4
	DefaultCores = 8
)

// Level classifies where an access was satisfied.
type Level int

// Access outcome levels.
const (
	L1Hit Level = iota
	L2Hit
	RemoteL2Hit // satisfied by the other socket's L2 (or its dirty line)
	MemoryHit   // satisfied by main memory
)

// CoreStats are the per-core PAPI-style counters.
type CoreStats struct {
	Accesses   uint64
	L1Misses   uint64
	L2Misses   uint64 // misses in this core's socket L2
	InvalsSent uint64 // lines this core's writes invalidated elsewhere
	CohMisses  uint64 // L1 misses caused by a prior remote invalidation
	FalseShare uint64 // CohMisses where the remote write touched a
	// different word of the line (classic false sharing)
}

// L1MissRatio returns L1 misses over accesses.
func (c CoreStats) L1MissRatio() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.L1Misses) / float64(c.Accesses)
}

type way struct {
	tag uint64 // line address, valid if != 0 (line 0 is never used:
	// the simulated address space starts at 256 MiB)
	lru uint64
}

// cache stores all sets in one flat way array (set s occupies
// ways[s*nways : (s+1)*nways]) so building a hierarchy costs a handful
// of allocations instead of one slice per set.
type cache struct {
	ways    []way
	nways   int
	setMask uint64
	tick    uint64
}

func newCache(nsets, nways int) *cache {
	return &cache{
		ways:    make([]way, nsets*nways),
		nways:   nways,
		setMask: uint64(nsets - 1),
	}
}

func (c *cache) set(line uint64) []way {
	base := int(line&c.setMask) * c.nways
	return c.ways[base : base+c.nways]
}

// lookup probes for line; on hit it refreshes LRU.
func (c *cache) lookup(line uint64) bool {
	c.tick++
	s := c.set(line)
	for i := range s {
		if s[i].tag == line {
			s[i].lru = c.tick
			return true
		}
	}
	return false
}

// insert places line, evicting the LRU way. Returns the evicted line (0
// if the way was empty).
func (c *cache) insert(line uint64) uint64 {
	c.tick++
	s := c.set(line)
	victim := 0
	for i := range s {
		if s[i].tag == 0 {
			victim = i
			break
		}
		if s[i].lru < s[victim].lru {
			victim = i
		}
	}
	old := s[victim].tag
	s[victim] = way{tag: line, lru: c.tick}
	return old
}

// invalidate removes line if present, reporting whether it was.
func (c *cache) invalidate(line uint64) bool {
	s := c.set(line)
	for i := range s {
		if s[i].tag == line {
			s[i].tag = 0
			return true
		}
	}
	return false
}

// lineState tracks coherence metadata per line: which cores hold it and
// what invalidated whom. The zero value is an untouched line.
type lineState struct {
	holders     uint32 // bitmask of cores with the line in L1
	invalidated uint32 // cores whose copy was invalidated since last hold
	lastWordOff int8   // word offset (0..7) of the most recent write
}

// Hierarchy is the full multicore cache model. Coherence metadata lives
// in a lazily paged table indexed directly by line number: a lookup is
// two pointer loads, steady-state accesses never allocate, and host
// memory grows with the lines a run touches. Lines past the table's
// range lie beyond the simulated space; a zombie transaction's wild
// load still reaches the model before the Space faults it, so those
// lines are priced from a small map instead.
type Hierarchy struct {
	cores     int
	l1        []cache
	l2        []cache  // one per socket
	sockMasks []uint32 // per socket, the bitmask of its cores
	lines     mem.Paged[lineState]
	wild      map[uint64]*lineState // lines at or past mem.PagedLen
	stats     []CoreStats
}

// New builds a hierarchy for the given core count (sockets of
// CoresPerL2 cores each; the last socket may be partial).
func New(cores int) *Hierarchy {
	if cores <= 0 {
		cores = DefaultCores
	}
	sockets := (cores + CoresPerL2 - 1) / CoresPerL2
	h := &Hierarchy{
		cores:     cores,
		l1:        make([]cache, cores),
		l2:        make([]cache, sockets),
		sockMasks: make([]uint32, sockets),
		stats:     make([]CoreStats, cores),
	}
	for i := range h.l1 {
		h.l1[i] = *newCache(l1Sets, l1Ways)
	}
	for i := range h.l2 {
		h.l2[i] = *newCache(l2Sets, l2Ways)
	}
	for c := 0; c < cores; c++ {
		h.sockMasks[socketOf(c)] |= 1 << uint(c)
	}
	return h
}

// wildLine returns the coherence record for a line past the paged
// table, creating it on first touch.
func (h *Hierarchy) wildLine(line uint64) *lineState {
	ls := h.wild[line]
	if ls == nil {
		if h.wild == nil {
			h.wild = make(map[uint64]*lineState)
		}
		ls = new(lineState)
		h.wild[line] = ls
	}
	return ls
}

// peekLine returns the coherence record for line, or nil if it was
// never backed. It never allocates; a never-touched record on a backed
// page is the zero lineState, as harmless as an absent one.
func (h *Hierarchy) peekLine(line uint64) *lineState {
	if line < mem.PagedLen {
		return h.lines.Peek(line)
	}
	return h.wild[line]
}

func socketOf(core int) int { return core / CoresPerL2 }

// Result describes one simulated access.
type Result struct {
	Level       Level
	Coherence   bool // the L1 miss was caused by a remote invalidation
	Invalidated bool // this write invalidated the line in other L1s
}

// Access simulates one data access by core to addr.
func (h *Hierarchy) Access(core int, addr mem.Addr, write bool) Result {
	line := uint64(addr) >> LineShift
	st := &h.stats[core]
	st.Accesses++

	var ls *lineState
	if line < mem.PagedLen {
		ls = h.lines.At(line)
	} else {
		ls = h.wildLine(line)
	}

	var res Result
	bit := uint32(1) << uint(core)
	if h.l1[core].lookup(line) {
		if write {
			res.Invalidated = h.invalidateOthers(core, ls, line, addr)
		}
		return res
	}

	// L1 miss.
	st.L1Misses++
	if ls.invalidated&bit != 0 {
		res.Coherence = true
		st.CohMisses++
		// False sharing: the write that invalidated us touched a
		// different word of the line.
		if ls.lastWordOff != int8((uint64(addr)>>3)&7) {
			st.FalseShare++
		}
		ls.invalidated &^= bit
	}

	sock := socketOf(core)
	if h.l2[sock].lookup(line) {
		res.Level = L2Hit
	} else {
		st.L2Misses++
		// A dirty or shared copy in another socket's cache services the
		// request faster than memory.
		if ls.holders&^h.sockMasks[sock] != 0 {
			res.Level = RemoteL2Hit
		} else {
			res.Level = MemoryHit
		}
		if evicted := h.l2[sock].insert(line); evicted != 0 {
			// Inclusive model: L2 eviction drops the line from this
			// socket's L1s.
			h.dropFromSocketL1s(sock, evicted)
		}
	}

	if evicted := h.l1[core].insert(line); evicted != 0 {
		if els := h.peekLine(evicted); els != nil {
			els.holders &^= bit
		}
	}
	ls.holders |= bit
	if write {
		res.Invalidated = h.invalidateOthers(core, ls, line, addr)
	}
	return res
}

func (h *Hierarchy) invalidateOthers(core int, ls *lineState, line uint64, addr mem.Addr) bool {
	bit := uint32(1) << uint(core)
	others := ls.holders &^ bit
	sent := others != 0
	if others != 0 {
		for c := 0; c < h.cores; c++ {
			if others&(1<<uint(c)) != 0 {
				h.l1[c].invalidate(line)
			}
		}
		ls.invalidated |= others
		ls.holders &= bit
		h.stats[core].InvalsSent++
	}
	ls.lastWordOff = int8((uint64(addr) >> 3) & 7)
	return sent
}

func (h *Hierarchy) dropFromSocketL1s(sock int, line uint64) {
	ls := h.peekLine(line)
	if ls == nil {
		return
	}
	m := ls.holders & h.sockMasks[sock]
	if m == 0 {
		return
	}
	for c := 0; c < h.cores; c++ {
		if m&(1<<uint(c)) != 0 {
			h.l1[c].invalidate(line)
		}
	}
	ls.holders &^= m
}

// Stats returns a copy of core c's counters.
func (h *Hierarchy) Stats(core int) CoreStats { return h.stats[core] }

// TotalStats sums counters over all cores.
func (h *Hierarchy) TotalStats() CoreStats {
	var out CoreStats
	for _, s := range h.stats {
		out.Accesses += s.Accesses
		out.L1Misses += s.L1Misses
		out.L2Misses += s.L2Misses
		out.InvalsSent += s.InvalsSent
		out.CohMisses += s.CohMisses
		out.FalseShare += s.FalseShare
	}
	return out
}

// Cores returns the modelled core count.
func (h *Hierarchy) Cores() int { return h.cores }
