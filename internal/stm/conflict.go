package stm

import (
	"repro/internal/mem"
	"repro/internal/obs"
)

// Conflict-observatory glue: when a ConflictHook is configured, every
// abort produces a structured ConflictEvent carrying the victim and
// killer identities, the conflicting stripe and both concrete
// addresses, and the wasted virtual cycles of the dead attempt. Like
// the race-checker glue (race.go) the hooks are pure observation —
// they never tick virtual time, never touch simulated memory, and
// never change protocol decisions — so an observed run is
// byte-identical to an unobserved one. Every helper is nil-checked so
// the disabled path costs one branch.
//
// The one piece of state the seam adds to the STM itself is lockTids:
// a lazily paged per-ORT-entry record of the thread that last acquired
// the entry (stored as tid+1, so zero means never acquired), maintained
// next to lockAddrs in acquire. It is allocated only when a hook is
// attached and read only to attribute a killer, never to decide
// protocol.

// NoKiller is the ConflictEvent.Killer value of an abort with no
// attributable rival thread (explicit restarts, OOM, validation
// failures whose conflicting commit cannot be named).
const NoKiller = -1

// ConflictEvent describes one abort, as reported to the observatory at
// the moment the transaction rolled back.
type ConflictEvent struct {
	Victim  int         // thread id of the aborted transaction
	Killer  int         // thread id of the rival, or NoKiller
	Kind    string      // victim's workload label (SetKind), "" if unlabeled
	Attempt uint64      // 1-based attempt number of the victim's Atomic
	Reason  AbortReason // why the attempt died
	// Stripe is the conflicting ORT entry index, or obs.NoStripe for
	// aborts without a single attributable entry. VictimAddr is the
	// address the victim was accessing; OwnerAddr the address that last
	// acquired the stripe (the rival's side of the conflict). Both are
	// zero when Stripe is obs.NoStripe.
	Stripe     uint64
	VictimAddr mem.Addr
	OwnerAddr  mem.Addr
	// Wasted is the virtual-cycle cost of the dead attempt
	// (begin-to-abort on the victim's clock).
	Wasted uint64
}

// ConflictHook receives abort forensics from the transaction
// lifecycle. It is implemented by *conflict.Observatory; stm sees only
// this narrow interface so the conflict package can build on stm's
// events without an import cycle.
//
// TxKind reports a workload label for the thread's current (and
// subsequent) transactions. TxConflict reports one abort, after the
// rollback completed. TxCommitted reports a commit, which ends any
// abort chain rooted at the thread.
type ConflictHook interface {
	TxKind(tid int, kind string)
	TxConflict(ev ConflictEvent)
	TxCommitted(tid int, kind string)
}

// SetKind labels the transactions this descriptor runs from now on
// (workloads call it first thing inside the atomic function, so every
// attempt re-asserts it). The label feeds conflict forensics — killer
// and victim transactions are reported by kind — and allocator blame:
// blocks allocated while the label is in force carry it as their
// allocation site. Pure observation: without a hook the call is one
// field store.
func (tx *Tx) SetKind(kind string) {
	tx.kind = kind
	if c := tx.stm.conflict; c != nil {
		c.TxKind(tx.th.ID(), kind)
	}
}

// Kind returns the descriptor's current workload label.
func (tx *Tx) Kind() string { return tx.kind }

// conflictStripe reports an abort attributed to one ORT entry: idx is
// the conflicting entry, a the victim's address, owner the address
// that last acquired the entry. The killer is the thread that last
// acquired the stripe — for AbortLockedByOther the lock holder, for
// AbortVersionAhead the committer that advanced the version past the
// snapshot.
func (tx *Tx) conflictStripe(reason AbortReason, idx uint64, a, owner mem.Addr) {
	c := tx.stm.conflict
	if c == nil {
		return
	}
	killer := NoKiller
	if tids := tx.stm.lockTids; tids != nil {
		if t := int(tids.Get(idx)) - 1; t >= 0 && t != tx.th.ID() {
			killer = t
		}
	}
	c.TxConflict(ConflictEvent{
		Victim:     tx.th.ID(),
		Killer:     killer,
		Kind:       tx.kind,
		Attempt:    tx.attempt,
		Reason:     reason,
		Stripe:     idx,
		VictimAddr: a,
		OwnerAddr:  owner,
		Wasted:     tx.th.Clock() - tx.beginClock,
	})
}

// conflictNoStripe reports an abort with no attributable ORT entry
// (validation failures, explicit restarts, OOM, kills). An aggressive
// rival's kill still names its killer via the descriptor's killedBy
// mark.
func (tx *Tx) conflictNoStripe(reason AbortReason) {
	c := tx.stm.conflict
	if c == nil {
		return
	}
	killer := NoKiller
	if reason == AbortKilled && tx.killedBy >= 0 && int(tx.killedBy) != tx.th.ID() {
		killer = int(tx.killedBy)
	}
	c.TxConflict(ConflictEvent{
		Victim:  tx.th.ID(),
		Killer:  killer,
		Kind:    tx.kind,
		Attempt: tx.attempt,
		Reason:  reason,
		Stripe:  obs.NoStripe,
		Wasted:  tx.th.Clock() - tx.beginClock,
	})
}

// conflictCommitted reports a commit (ends the thread's abort chain).
func (tx *Tx) conflictCommitted() {
	if c := tx.stm.conflict; c != nil {
		c.TxCommitted(tx.th.ID(), tx.kind)
	}
}
