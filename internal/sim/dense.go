package sim

import "sort"

// Dense generation-indexed knowledge storage.
//
// The knowledge tables keyed by (column, step) used to be open-addressing
// hash maps (u64map), and profiling showed the engine spending roughly half
// its cycles hashing and probing them. But the key space is structured: a
// workstation only ever keys the columns it holds plus their guest
// neighbors (a small static universe fixed by the assignment), and for each
// column the live steps form a short window — a value dies as soon as every
// local consumer has computed past it. So instead of hashing, each column
// gets a flat ring over its live step window, indexed directly by
// step mod len(ring) with the step itself stored as a generation tag:
//
//   - lookup/insert/delete are a single indexed load or store plus a tag
//     compare — no hash, no probe chain, no tombstones;
//   - deletion just clears the tag; generation tags make stale slots
//     self-invalidating, so churn can never degrade later lookups the way
//     tombstones or displaced entries degrade a hash table;
//   - when two live steps of one column collide mod the ring size (the
//     retirement window outgrew the ring), the ring doubles until it covers
//     the live span — capacity >= span guarantees distinct live steps map
//     to distinct slots, so growth is always conflict-free.
//
// The pooled waiter lists that used to hang off a second hash map rehome
// onto the same slots: a slot whose value has not arrived yet carries the
// head of the waiter chain instead, so addWaiter and recordValue never hash
// either. A known value's slot carries its pending-consumer count in the
// same word, so retirement is a decrement on the slot the consumer just
// read rather than a scan of every consumer's frontier. u64map survives,
// in a test file, only as the differential test oracle (FuzzDenseKnowledge).
//
// Slot states, for a slot whose tag matches the queried step:
//
//	waitHead <  0: the value is known and stored in val; -1 - waitHead
//	               local column references still have to consume it
//	waitHead >= 0: the value is still missing; waitHead chains the pooled
//	               waiter nodes that want it (see proc.waitPool)
//
// A zero tag means the slot is empty (guest steps are >= 1).
type kslot struct {
	step     int32 // generation tag: the guest step stored here; 0 = empty
	waitHead int32 // waiter chain head when the value is pending; -1-consumers once known
	val      uint64
}

// kring is one column's flat ring over its live step window.
type kring struct {
	slots []kslot
	live  int32 // claimed slots (known values + pending waiter anchors)
}

func (r *kring) at(step int32) *kslot {
	return &r.slots[uint32(step)&uint32(len(r.slots)-1)]
}

// denseKnow is one workstation's knowledge store: one ring per column in
// its universe. All counters are plain fields maintained inline (an
// increment on state the operation already touches), so the telemetry
// gauges that replaced the old O(capacity) probeStats scans are O(1) reads.
type denseKnow struct {
	universe []int32 // sorted distinct guest columns this store can key
	rings    []kring // parallel to universe

	live      int32 // claimed slots across all rings
	livePeak  int32 // high-water of live
	slots     int32 // allocated ring slots across all rings, right now
	slotsPeak int32 // high-water of slots: peak ring bytes = slotsPeak * 16
	retireLag int32 // peak per-ring occupancy seen at claim time: how far
	// retirement trails the frontier, in unretired steps
	grows   int64 // ring growth events
	shrinks int64 // ring shrink events
}

// initRingSlots is the initial per-column ring capacity. Most columns never
// hold more than a few live steps at once (retirement runs one step behind
// the frontier; the measured retire lag of a 2048-host random NOW is 2), so
// start small and let skewed columns grow on demand.
const initRingSlots = 4

// colUniverse returns the sorted distinct guest columns that can ever be
// keyed at a position holding `owned`: the owned columns plus their guest
// neighbors. Routes only deliver a column's values to holders of its
// neighbors, and local computes only record owned columns, so this universe
// is exact and static for the whole run.
func colUniverse(neighbors func(int) []int, owned []int) []int32 {
	if len(owned) == 0 {
		return nil
	}
	u := make([]int32, 0, 4*len(owned))
	for _, c := range owned {
		u = append(u, int32(c))
		for _, nb := range neighbors(c) {
			u = append(u, int32(nb))
		}
	}
	sort.Slice(u, func(i, j int) bool { return u[i] < u[j] })
	out := u[:1]
	for _, c := range u[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// denseIndex returns col's index in the sorted universe, or -1.
func denseIndex(universe []int32, col int32) int32 {
	lo, hi := 0, len(universe)
	for lo < hi {
		mid := (lo + hi) / 2
		if universe[mid] < col {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(universe) && universe[lo] == col {
		return int32(lo)
	}
	return -1
}

func newDenseKnow(universe []int32) denseKnow {
	k := denseKnow{universe: universe, rings: make([]kring, len(universe))}
	// One backing array for all initial rings keeps init to a single
	// allocation; rings that grow reallocate individually.
	backing := make([]kslot, len(universe)*initRingSlots)
	for i := range k.rings {
		lo := i * initRingSlots
		k.rings[i].slots = backing[lo : lo+initRingSlots : lo+initRingSlots]
	}
	k.slots = int32(len(universe) * initRingSlots)
	k.slotsPeak = k.slots
	return k
}

// get returns the value stored for (dense, step) and whether it is known. A
// tag mismatch means the step is genuinely absent: a live step is only ever
// stored at its own residue, so no other slot could hold it.
func (k *denseKnow) get(dense, step int32) (uint64, bool) {
	s := k.rings[dense].at(step)
	if s.step == step && s.waitHead < 0 {
		return s.val, true
	}
	return 0, false
}

// has reports whether the value for (dense, step) is known.
func (k *denseKnow) has(dense, step int32) bool {
	s := k.rings[dense].at(step)
	return s.step == step && s.waitHead < 0
}

// ensure returns the slot for (ring, step), growing the ring first when the
// slot is claimed by a different live step.
func (k *denseKnow) ensure(r *kring, step int32) *kslot {
	s := r.at(step)
	if s.step == step || s.step == 0 {
		return s
	}
	k.grow(r, step)
	return r.at(step)
}

// claim marks an empty slot live for step and updates the occupancy
// accounting shared by put and waiterSlot.
func (k *denseKnow) claim(r *kring, s *kslot, step int32) {
	if r.live > k.retireLag {
		// Everything already live in this ring is an older step not yet
		// retired — the occupancy at claim time is the retirement lag.
		k.retireLag = r.live
	}
	s.step = step
	r.live++
	k.live++
	if k.live > k.livePeak {
		k.livePeak = k.live
	}
}

// put stores the value for (dense, step) with `consumers` pending reads and
// returns the head of any waiter chain that was pending on it (-1 when
// none). The caller owns draining the chain; the slot itself transitions to
// the known state.
func (k *denseKnow) put(dense, step int32, val uint64, consumers int32) int32 {
	r := &k.rings[dense]
	s := k.ensure(r, step)
	head := int32(-1)
	if s.step == 0 {
		k.claim(r, s, step)
	} else if s.waitHead >= 0 {
		head = s.waitHead
	}
	s.waitHead = -1 - consumers
	s.val = val
	return head
}

// consume records that one consumer has read (dense, step) for the last
// time and retires the value when it was the last one pending.
func (k *denseKnow) consume(dense, step int32) {
	s := k.rings[dense].at(step)
	if s.step == step && s.waitHead < 0 {
		if s.waitHead < -2 {
			s.waitHead++
		} else {
			k.del(dense, step)
		}
	}
}

// waiterSlot returns the slot for (dense, step) with the value still
// pending, claiming it when empty, so the caller can push a waiter node
// onto its chain. The pointer is valid until the store's next mutation.
func (k *denseKnow) waiterSlot(dense, step int32) *kslot {
	r := &k.rings[dense]
	s := k.ensure(r, step)
	if s.step == 0 {
		k.claim(r, s, step)
		s.waitHead = -1
		s.val = 0
	}
	return s
}

// del retires a known value whatever its pending count. Clearing the
// generation tag is the entire deletion — no backward shift, no tombstone —
// which is why heavy churn cannot degrade this store. Pending-waiter slots
// are never deleted: the engine only retires values whose consumers have
// all read them, and a consumer blocked on the value has, by definition, not.
//
// When occupancy falls to a quarter of a grown ring (or the ring drains
// entirely), the ring shrinks back toward initRingSlots, so a growth spike
// — a standby host's pinned history released by activation, a churn burst —
// costs peak bytes only while it is live. live decrements one at a time, so
// the equality check crosses exactly once per descent instead of rescanning
// the ring on every del.
func (k *denseKnow) del(dense, step int32) {
	r := &k.rings[dense]
	s := r.at(step)
	if s.step == step && s.waitHead < 0 {
		s.step = 0
		s.val = 0
		r.live--
		k.live--
		if len(r.slots) > initRingSlots && (r.live*4 == int32(len(r.slots)) || r.live == 0) {
			k.shrink(r)
		}
	}
}

// grow widens r until its capacity covers the whole live step span
// including step, then rehomes every live slot. Capacity >= span keeps
// distinct live steps at distinct residues, so rehoming never conflicts.
func (k *denseKnow) grow(r *kring, step int32) {
	k.grows++
	lo, hi := step, step
	for i := range r.slots {
		if s := r.slots[i].step; s != 0 {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
	}
	span := int(hi-lo) + 1
	newCap := 2 * len(r.slots)
	for newCap < span {
		newCap *= 2
	}
	old := r.slots
	r.slots = make([]kslot, newCap)
	for i := range old {
		if old[i].step != 0 {
			*r.at(old[i].step) = old[i]
		}
	}
	k.slots += int32(newCap - len(old))
	if k.slots > k.slotsPeak {
		k.slotsPeak = k.slots
	}
}

// shrink narrows r to the smallest power of two that still covers the live
// step span (but never below initRingSlots), rehoming the surviving slots.
// Capacity >= span keeps distinct live steps at distinct residues — the same
// invariant grow maintains — so rehoming never conflicts. Pending waiter
// anchors move with their slots: the chain head lives in the slot itself, so
// the copy carries the whole chain.
func (k *denseKnow) shrink(r *kring) {
	var lo, hi int32
	for i := range r.slots {
		if s := r.slots[i].step; s != 0 {
			if lo == 0 || s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
	}
	span := 0
	if lo != 0 {
		span = int(hi-lo) + 1
	}
	newCap := initRingSlots
	for newCap < span {
		newCap *= 2
	}
	if newCap >= len(r.slots) {
		return // sparse survivors still span the current capacity
	}
	k.shrinks++
	old := r.slots
	r.slots = make([]kslot, newCap)
	for i := range old {
		if old[i].step != 0 {
			*r.at(old[i].step) = old[i]
		}
	}
	k.slots -= int32(len(old) - newCap)
}
