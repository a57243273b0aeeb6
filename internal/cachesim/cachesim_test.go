package cachesim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
)

const base = mem.Addr(1) << 28 // mirrors the simulated space's start

func TestColdMissThenHit(t *testing.T) {
	h := New(8)
	if r := h.Access(0, base, false); r.Level != MemoryHit {
		t.Errorf("first access level = %v, want MemoryHit", r.Level)
	}
	if r := h.Access(0, base, false); r.Level != L1Hit {
		t.Errorf("second access level = %v, want L1Hit", r.Level)
	}
	if r := h.Access(0, base+56, false); r.Level != L1Hit {
		t.Errorf("same-line access level = %v, want L1Hit", r.Level)
	}
	if r := h.Access(0, base+64, false); r.Level == L1Hit {
		t.Error("next-line access hit in L1 without being fetched")
	}
}

func TestL2SharedWithinSocket(t *testing.T) {
	h := New(8)
	h.Access(0, base, false) // core 0 (socket 0) fetches
	// Core 1 shares socket 0's L2: its miss should hit in L2.
	if r := h.Access(1, base, false); r.Level != L2Hit {
		t.Errorf("same-socket access = %v, want L2Hit", r.Level)
	}
	// Core 4 (socket 1) has a cold L2.
	if r := h.Access(4, base+4096, false); r.Level != MemoryHit {
		t.Errorf("cold other-socket access = %v, want MemoryHit", r.Level)
	}
}

func TestInvalidationOnWrite(t *testing.T) {
	h := New(2)
	h.Access(0, base, false)
	h.Access(1, base, false)
	// Core 1 writes: core 0's copy must be invalidated.
	h.Access(1, base, true)
	if h.Stats(1).InvalsSent != 1 {
		t.Errorf("InvalsSent = %d, want 1", h.Stats(1).InvalsSent)
	}
	r := h.Access(0, base, false)
	if r.Level == L1Hit {
		t.Error("core 0 still hits L1 after remote write")
	}
	if !r.Coherence {
		t.Error("re-read after invalidation not classified as coherence miss")
	}
	if h.Stats(0).CohMisses != 1 {
		t.Errorf("CohMisses = %d, want 1", h.Stats(0).CohMisses)
	}
}

func TestFalseSharingClassification(t *testing.T) {
	h := New(2)
	// Core 0 reads word 0; core 1 writes word 4 of the same line.
	h.Access(0, base, false)
	h.Access(1, base+32, true)
	if r := h.Access(0, base, false); !r.Coherence {
		t.Fatal("expected coherence miss")
	}
	if h.Stats(0).FalseShare != 1 {
		t.Errorf("FalseShare = %d, want 1 (remote write touched a different word)", h.Stats(0).FalseShare)
	}

	// True sharing: same word written remotely — no false-share count.
	h2 := New(2)
	h2.Access(0, base, false)
	h2.Access(1, base, true)
	h2.Access(0, base, false)
	if h2.Stats(0).FalseShare != 0 {
		t.Errorf("true sharing misclassified as false sharing")
	}
	if h2.Stats(0).CohMisses != 1 {
		t.Errorf("true-sharing CohMisses = %d, want 1", h2.Stats(0).CohMisses)
	}
}

func TestL1Eviction(t *testing.T) {
	h := New(1)
	// Fill one L1 set: lines mapping to set 0 are 64 sets * 64 bytes =
	// 4096 bytes apart. 8 ways + 1 evicts the LRU.
	for i := 0; i < l1Ways+1; i++ {
		h.Access(0, base+mem.Addr(i*l1Sets*LineSize), false)
	}
	// The first line must have been evicted from L1 (but still hits L2).
	r := h.Access(0, base, false)
	if r.Level != L2Hit {
		t.Errorf("evicted line access = %v, want L2Hit", r.Level)
	}
	// The second line was recently used less than... verify the set only
	// holds l1Ways lines: total misses = 9 cold + 1 eviction re-fetch.
	if got := h.Stats(0).L1Misses; got != uint64(l1Ways+2) {
		t.Errorf("L1Misses = %d, want %d", got, l1Ways+2)
	}
}

func TestWorkingSetFitsAfterWarmup(t *testing.T) {
	h := New(1)
	// 16 KiB working set fits L1: second sweep should be all hits.
	for pass := 0; pass < 2; pass++ {
		for off := mem.Addr(0); off < 16<<10; off += 64 {
			h.Access(0, base+off, false)
		}
	}
	st := h.Stats(0)
	if st.L1Misses != 256 { // only the cold pass misses
		t.Errorf("L1Misses = %d, want 256", st.L1Misses)
	}
	if got := st.L1MissRatio(); got != 0.5 {
		t.Errorf("miss ratio = %v, want 0.5", got)
	}
}

func TestGlibcVsDenseLayoutLocality(t *testing.T) {
	// The paper's Genome observation: 16-byte nodes placed 32 bytes
	// apart (glibc) touch twice as many lines as densely packed ones.
	sparse := New(1)
	for i := 0; i < 4096; i++ {
		sparse.Access(0, base+mem.Addr(i*32), false)
	}
	dense := New(1)
	for i := 0; i < 4096; i++ {
		dense.Access(0, base+mem.Addr(i*16), false)
	}
	if sparse.Stats(0).L1Misses <= dense.Stats(0).L1Misses {
		t.Errorf("sparse layout misses (%d) not worse than dense (%d)",
			sparse.Stats(0).L1Misses, dense.Stats(0).L1Misses)
	}
}

func TestTotalStats(t *testing.T) {
	h := New(4)
	h.Access(0, base, false)
	h.Access(3, base+4096, true)
	tot := h.TotalStats()
	if tot.Accesses != 2 || tot.L1Misses != 2 {
		t.Errorf("TotalStats = %+v", tot)
	}
}

// refHierarchy is the coherence model as it stood with a Go map from
// line number to an arena of line records and a per-call socket-mask
// loop: the reference the paged line table and the precomputed socket
// masks are checked against.
type refHierarchy struct {
	cores     int
	l1        []cache
	l2        []cache
	lineIdx   map[uint64]int32
	lineArena []refLine
	stats     []CoreStats
}

type refLine struct {
	holders     uint32
	invalidated uint32
	lastWriter  int8 // -1: never written
	lastWordOff int8
}

func newRef(cores int) *refHierarchy {
	sockets := (cores + CoresPerL2 - 1) / CoresPerL2
	h := &refHierarchy{
		cores:   cores,
		l1:      make([]cache, cores),
		l2:      make([]cache, sockets),
		lineIdx: map[uint64]int32{},
		stats:   make([]CoreStats, cores),
	}
	for i := range h.l1 {
		h.l1[i] = *newCache(l1Sets, l1Ways)
	}
	for i := range h.l2 {
		h.l2[i] = *newCache(l2Sets, l2Ways)
	}
	return h
}

func (h *refHierarchy) lineOf(line uint64) *refLine {
	if i, ok := h.lineIdx[line]; ok {
		return &h.lineArena[i]
	}
	h.lineArena = append(h.lineArena, refLine{lastWriter: -1})
	i := int32(len(h.lineArena) - 1)
	h.lineIdx[line] = i
	return &h.lineArena[i]
}

func (h *refHierarchy) peekLine(line uint64) *refLine {
	if i, ok := h.lineIdx[line]; ok {
		return &h.lineArena[i]
	}
	return nil
}

func (h *refHierarchy) socketMask(sock int) uint32 {
	var m uint32
	for c := 0; c < h.cores; c++ {
		if socketOf(c) == sock {
			m |= 1 << uint(c)
		}
	}
	return m
}

func (h *refHierarchy) Access(core int, addr mem.Addr, write bool) Result {
	line := uint64(addr) >> LineShift
	st := &h.stats[core]
	st.Accesses++
	ls := h.lineOf(line)
	var res Result
	bit := uint32(1) << uint(core)
	if h.l1[core].lookup(line) {
		if write {
			res.Invalidated = h.invalidateOthers(core, ls, line, addr)
		}
		return res
	}
	st.L1Misses++
	if ls.invalidated&bit != 0 {
		res.Coherence = true
		st.CohMisses++
		if ls.lastWriter >= 0 && ls.lastWordOff != int8((uint64(addr)>>3)&7) {
			st.FalseShare++
		}
		ls.invalidated &^= bit
	}
	sock := socketOf(core)
	if h.l2[sock].lookup(line) {
		res.Level = L2Hit
	} else {
		st.L2Misses++
		if ls.holders&^h.socketMask(sock) != 0 {
			res.Level = RemoteL2Hit
		} else {
			res.Level = MemoryHit
		}
		if evicted := h.l2[sock].insert(line); evicted != 0 {
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

func (h *refHierarchy) invalidateOthers(core int, ls *refLine, line uint64, addr mem.Addr) bool {
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
	ls.lastWriter = int8(core)
	ls.lastWordOff = int8((uint64(addr) >> 3) & 7)
	return sent
}

func (h *refHierarchy) dropFromSocketL1s(sock int, line uint64) {
	ls := h.peekLine(line)
	if ls == nil {
		return
	}
	m := h.socketMask(sock)
	if ls.holders&m == 0 {
		return
	}
	for c := 0; c < h.cores; c++ {
		if socketOf(c) == sock && ls.holders&(1<<uint(c)) != 0 {
			h.l1[c].invalidate(line)
			ls.holders &^= 1 << uint(c)
		}
	}
}

// sparseAddr draws a word address from a sparse layout: eight regions
// 2^27 bytes apart from the simulated space's 256 MiB start (glibc's
// arena spacing), one region ending at mem.MaxAddr, and two past it
// (starting at mem.MaxAddr, and at 2^62), where only a zombie
// transaction's wild load reaches; each has four 256 KiB-strided blocks
// of 16 lines. Corresponding lines of every block
// share an L1 and an L2 set (36 lines against 8 and 24 ways), so the
// trace evicts from both levels, including the inclusive L2-to-L1 drop;
// half the draws hit a small hot set that the cores share.
func sparseAddr(rng *rand.Rand) mem.Addr {
	region, block, line := rng.Intn(11), rng.Intn(4), rng.Intn(16)
	if rng.Intn(2) == 0 {
		region, block, line = rng.Intn(2)*8, 0, rng.Intn(2)
	}
	rbase := base + mem.Addr(region)<<27
	switch region {
	case 8:
		rbase = mem.MaxAddr - 1<<20
	case 9:
		rbase = mem.MaxAddr
	case 10:
		rbase = 1 << 62
	}
	return rbase + mem.Addr(block)<<18 + mem.Addr(line)*LineSize + mem.Addr(rng.Intn(8))*mem.WordSize
}

// TestDifferentialAgainstMapModel drives the paged line table and the
// map-based reference with the same seeded random read/write traces and
// requires every Result and, periodically and at the end, every core's
// counters to agree. The 6-core run leaves the second socket partial,
// which exercises the precomputed socket masks off the even case.
func TestDifferentialAgainstMapModel(t *testing.T) {
	for _, tc := range []struct {
		cores int
		seed  int64
	}{{8, 1}, {8, 2}, {8, 3}, {6, 4}} {
		t.Run(fmt.Sprintf("cores%d/seed%d", tc.cores, tc.seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			got, want := New(tc.cores), newRef(tc.cores)
			const steps = 100_000
			var levels [MemoryHit + 1]int
			for i := 0; i < steps; i++ {
				core, addr, write := rng.Intn(tc.cores), sparseAddr(rng), rng.Intn(10) < 3
				g, w := got.Access(core, addr, write), want.Access(core, addr, write)
				if g != w {
					t.Fatalf("step %d: core %d %#x write=%v: Result %+v, reference %+v", i, core, uint64(addr), write, g, w)
				}
				levels[g.Level]++
				if i%1024 == 0 || i == steps-1 {
					for c := 0; c < tc.cores; c++ {
						if g, w := got.Stats(c), want.stats[c]; g != w {
							t.Fatalf("step %d: core %d stats %+v, reference %+v", i, c, g, w)
						}
					}
				}
			}
			tot := got.TotalStats()
			if tot.CohMisses == 0 || tot.FalseShare == 0 || tot.InvalsSent == 0 || slices.Contains(levels[:], 0) {
				t.Fatalf("trace too tame to compare the models: %+v, levels %v", tot, levels)
			}
		})
	}
}

// BenchmarkAccessHit measures an L1 hit: one core re-reading a line it
// holds.
func BenchmarkAccessHit(b *testing.B) {
	h := New(DefaultCores)
	h.Access(0, base, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, base, false)
	}
}

// BenchmarkAccessMiss measures the L1-and-L2 miss path: one core
// streaming over 64 MiB of lines, far more than both levels hold, so
// every access misses, inserts and evicts.
func BenchmarkAccessMiss(b *testing.B) {
	h := New(DefaultCores)
	const span = 64 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, base+mem.Addr(i*LineSize%span), false)
	}
}

// BenchmarkAccessCoherence measures the invalidation path: two cores on
// different sockets alternately writing different words of one line, so
// every access is a coherence miss that invalidates the other copy.
func BenchmarkAccessCoherence(b *testing.B) {
	h := New(DefaultCores)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core := (i & 1) * CoresPerL2
		h.Access(core, base+mem.Addr(core), true)
	}
}

// BenchmarkNew measures building the eight-core hierarchy of every
// simulated world, host allocations included.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(DefaultCores)
	}
}
