package stm

// u64Table is a small open-addressing hash table from uint64 keys to
// int32 values, reused across transactions: reset clears it without
// releasing the backing arrays, so the steady-state begin/load/store
// path performs no host allocation (the maps it replaces, writeIdx and
// lockedSet, were cleared with clear() but still rehashed and spilled
// buckets under load). Linear probing over a power-of-two slot count;
// keys are stored biased by +1 so a zero slot means empty and key 0
// (a valid ORT index) stays representable.
//
// The table records the slots it filled since the last reset, so a
// reset costs what the transaction touched rather than the capacity an
// earlier, larger transaction grew the table to.
type u64Table struct {
	keys []uint64 // key+1; 0 marks an empty slot
	vals []int32
	used []uint32 // slots filled since the last reset, one per key
}

const tableMinSlots = 64

// hashSlot spreads k over the table (Fibonacci multiplicative hashing;
// the low bits of ORT indices and word-aligned addresses are regular).
func hashSlot(k, mask uint64) uint64 {
	return (k * 0x9e3779b97f4a7c15) >> 32 & mask
}

// len returns the number of keys stored.
func (t *u64Table) len() int { return len(t.used) }

// reset empties the table, keeping capacity. It zeroes only the filled
// slots: one store per key, which the key's insert already paid for.
func (t *u64Table) reset() {
	for _, i := range t.used {
		t.keys[i] = 0
	}
	t.used = t.used[:0]
}

// get returns the value stored for k.
func (t *u64Table) get(k uint64) (int32, bool) {
	if len(t.used) == 0 {
		return 0, false
	}
	mask := uint64(len(t.keys) - 1)
	ek := k + 1
	for i := hashSlot(k, mask); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case ek:
			return t.vals[i], true
		case 0:
			return 0, false
		}
	}
}

// put stores v for k (overwriting any existing entry), growing at 3/4
// load so probe chains stay short.
func (t *u64Table) put(k uint64, v int32) {
	if len(t.keys) == 0 {
		t.keys = make([]uint64, tableMinSlots)
		t.vals = make([]int32, tableMinSlots)
	} else if len(t.used) >= len(t.keys)/4*3 {
		t.grow()
	}
	t.insert(k, v)
}

// insert places (k, v), recording the slot of a new key.
func (t *u64Table) insert(k uint64, v int32) {
	mask := uint64(len(t.keys) - 1)
	ek := k + 1
	for i := hashSlot(k, mask); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case 0:
			t.keys[i] = ek
			t.vals[i] = v
			t.used = append(t.used, uint32(i))
			return
		case ek:
			t.vals[i] = v
			return
		}
	}
}

// grow doubles the table and rehashes the stored keys, rebuilding the
// filled-slot list for the new layout.
func (t *u64Table) grow() {
	oldKeys, oldVals, oldUsed := t.keys, t.vals, t.used
	t.keys = make([]uint64, len(oldKeys)*2)
	t.vals = make([]int32, len(oldVals)*2)
	t.used = make([]uint32, 0, cap(oldUsed)*2)
	for _, i := range oldUsed {
		t.insert(oldKeys[i]-1, oldVals[i])
	}
}
