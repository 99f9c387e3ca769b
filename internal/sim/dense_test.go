package sim

import (
	"testing"

	"latencyhide/internal/guest"
)

// size reports the claimed slots across all rings (known values plus
// pending waiter anchors).
func (k *denseKnow) size() int { return int(k.live) }

func singleColKnow() denseKnow {
	return newDenseKnow([]int32{7})
}

func TestColUniverse(t *testing.T) {
	g := guest.NewLinearArray(10)
	u := colUniverse(g.Neighbors, []int{3, 4})
	want := []int32{2, 3, 4, 5}
	if len(u) != len(want) {
		t.Fatalf("universe %v, want %v", u, want)
	}
	for i := range want {
		if u[i] != want[i] {
			t.Fatalf("universe %v, want %v", u, want)
		}
	}
	for i, c := range want {
		if d := denseIndex(u, c); d != int32(i) {
			t.Errorf("denseIndex(%d) = %d, want %d", c, d, i)
		}
	}
	if d := denseIndex(u, 9); d != -1 {
		t.Errorf("denseIndex(9) = %d, want -1", d)
	}
	if colUniverse(g.Neighbors, nil) != nil {
		t.Error("empty owned list must give empty universe")
	}
}

// The sliding window of the engine: put step s, retire step s-2, forever.
// The ring must wrap in place without ever growing.
func TestDenseRingWrapNoGrowth(t *testing.T) {
	k := singleColKnow()
	for s := int32(1); s <= 200; s++ {
		if head := k.put(0, s, uint64(s)*3, 1); head != -1 {
			t.Fatalf("step %d: unexpected waiter chain %d", s, head)
		}
		if s > 2 {
			k.del(0, s-2)
		}
		if v, ok := k.get(0, s); !ok || v != uint64(s)*3 {
			t.Fatalf("step %d lost", s)
		}
		if s > 1 {
			if _, ok := k.get(0, s-1); !ok {
				t.Fatalf("step %d prematurely gone", s-1)
			}
		}
	}
	if k.grows != 0 {
		t.Errorf("sliding window grew the ring %d times", k.grows)
	}
	if k.slots != initRingSlots {
		t.Errorf("slots = %d, want %d", k.slots, initRingSlots)
	}
	if k.live != 2 {
		t.Errorf("live = %d, want 2", k.live)
	}
}

// Two live steps that collide mod the ring size force a growth that must
// rehome every live slot conflict-free.
func TestDenseRingGrowthRehomes(t *testing.T) {
	k := singleColKnow()
	k.put(0, 1, 100, 1)
	k.put(0, 1+initRingSlots, 200, 1) // same residue as step 1: must grow
	if k.grows != 1 {
		t.Fatalf("grows = %d, want 1", k.grows)
	}
	if v, ok := k.get(0, 1); !ok || v != 100 {
		t.Fatal("step 1 lost across growth")
	}
	if v, ok := k.get(0, 1+initRingSlots); !ok || v != 200 {
		t.Fatal("colliding step lost across growth")
	}
	if k.slots <= initRingSlots {
		t.Errorf("slots = %d did not grow", k.slots)
	}
	// A colliding span wider than double the capacity must grow past one
	// doubling, straight to a capacity covering the whole live span.
	k2 := singleColKnow()
	k2.put(0, 1, 1, 1)
	k2.put(0, 1001, 2, 1) // 1001 ≡ 1 mod initRingSlots: conflict, span 1001
	if _, ok := k2.get(0, 1); !ok {
		t.Fatal("step 1 lost")
	}
	if _, ok := k2.get(0, 1001); !ok {
		t.Fatal("step 1001 lost")
	}
	if int(k2.slots) < 1001 {
		t.Errorf("slots = %d, want >= span 1001", k2.slots)
	}
}

// A pending waiter anchor must hide the value from get/has, survive del, and
// hand its chain head back to put exactly once.
func TestDenseWaiterAnchor(t *testing.T) {
	k := singleColKnow()
	s := k.waiterSlot(0, 5)
	s.waitHead = 42 // chain a fake pool node, as addWaiter does
	if _, ok := k.get(0, 5); ok {
		t.Fatal("pending slot readable as value")
	}
	if k.has(0, 5) {
		t.Fatal("pending slot reported known")
	}
	k.del(0, 5) // engine never retires a pending slot; must be a no-op
	if k.size() != 1 {
		t.Fatalf("del removed a pending anchor: size %d", k.size())
	}
	if head := k.put(0, 5, 77, 1); head != 42 {
		t.Fatalf("put returned chain %d, want 42", head)
	}
	if v, ok := k.get(0, 5); !ok || v != 77 {
		t.Fatal("value missing after resolving waiters")
	}
	if head := k.put(0, 5, 77, 1); head != -1 {
		t.Fatalf("second put returned chain %d, want -1", head)
	}
}

// A growth spike must be temporary: once the spiked values retire, the ring
// shrinks back to initRingSlots and only slotsPeak remembers the spike. The
// drain leaves initRingSlots/2 live steps: a ring shrinks when its occupancy
// falls to a quarter, so that is low enough to pass every intermediate
// capacity on the way home.
func TestDenseRingShrinkAfterSpike(t *testing.T) {
	k := singleColKnow()
	for s := int32(1); s <= 32; s++ {
		k.put(0, s, uint64(s), 1)
	}
	if k.slots != 32 {
		t.Fatalf("slots = %d after spike, want 32", k.slots)
	}
	keep := int32(initRingSlots / 2)
	for s := int32(1); s <= 32-keep; s++ {
		k.del(0, s)
	}
	if k.shrinks < 1 {
		t.Fatalf("shrinks = %d, want at least 1", k.shrinks)
	}
	if k.slots != initRingSlots {
		t.Fatalf("slots = %d after drain, want %d", k.slots, initRingSlots)
	}
	if k.slotsPeak != 32 {
		t.Fatalf("slotsPeak = %d, want 32 (the spike)", k.slotsPeak)
	}
	for s := 33 - keep; s <= 32; s++ {
		if v, ok := k.get(0, s); !ok || v != uint64(s) {
			t.Fatalf("step %d lost across shrink", s)
		}
	}
	if k.live != keep {
		t.Fatalf("live = %d, want %d", k.live, keep)
	}
}

// consume retires a value exactly when its last pending consumer reads it,
// and never touches a pending waiter anchor or an absent step.
func TestDenseConsumeRefcount(t *testing.T) {
	k := singleColKnow()
	k.put(0, 3, 30, 3)
	for i := 0; i < 2; i++ {
		k.consume(0, 3)
		if v, ok := k.get(0, 3); !ok || v != 30 {
			t.Fatalf("value retired after %d of 3 consumers", i+1)
		}
	}
	k.consume(0, 3)
	if k.has(0, 3) || k.live != 0 {
		t.Fatalf("value survived its last consumer: live %d", k.live)
	}
	k.consume(0, 3) // absent: no-op
	s := k.waiterSlot(0, 4)
	s.waitHead = 42 // chain a fake pool node, as addWaiter does
	k.consume(0, 4)
	if k.size() != 1 || s.waitHead != 42 {
		t.Fatalf("consume touched a pending anchor: size %d head %d", k.size(), s.waitHead)
	}
	// The waiter chain hands over to the known state with the full count.
	if head := k.put(0, 4, 40, 2); head != 42 {
		t.Fatalf("put returned chain %d, want 42", head)
	}
	k.consume(0, 4)
	if !k.has(0, 4) {
		t.Fatal("value retired with a consumer still pending")
	}
	k.consume(0, 4)
	if k.size() != 0 {
		t.Fatalf("size = %d after the last consumer, want 0", k.size())
	}
}

// Shrink must rehome surviving steps whose residues wrap around the smaller
// ring: survivors {6,7,8,9} straddle a multiple of initRingSlots.
func TestDenseRingShrinkWrapBoundary(t *testing.T) {
	k := singleColKnow()
	for s := int32(1); s <= 16; s++ {
		k.put(0, s, uint64(s)*11, 1)
	}
	if k.slots != 16 {
		t.Fatalf("slots = %d, want 16", k.slots)
	}
	for s := int32(1); s <= 5; s++ {
		k.del(0, s)
	}
	for s := int32(10); s <= 16; s++ {
		k.del(0, s)
	}
	if k.shrinks != 1 || k.slots != initRingSlots {
		t.Fatalf("shrinks = %d slots = %d, want 1 and %d", k.shrinks, k.slots, initRingSlots)
	}
	for s := int32(6); s <= 9; s++ {
		if v, ok := k.get(0, s); !ok || v != uint64(s)*11 {
			t.Fatalf("step %d lost across wrapping shrink", s)
		}
	}
}

// A pending waiter anchor must ride through a shrink with its chain intact.
func TestDenseWaiterSurvivesShrink(t *testing.T) {
	k := singleColKnow()
	for s := int32(1); s <= 16; s++ {
		if s != 10 {
			k.put(0, s, uint64(s), 1)
		}
	}
	ws := k.waiterSlot(0, 10)
	ws.waitHead = 42 // chain a fake pool node, as addWaiter does
	for _, s := range []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 15, 16} {
		k.del(0, s)
	}
	if k.shrinks != 1 || k.slots != initRingSlots {
		t.Fatalf("shrinks = %d slots = %d, want 1 and %d", k.shrinks, k.slots, initRingSlots)
	}
	if k.size() != 4 {
		t.Fatalf("size = %d, want 4 (3 values + 1 pending)", k.size())
	}
	if head := k.put(0, 10, 99, 1); head != 42 {
		t.Fatalf("put after shrink returned chain %d, want 42", head)
	}
	for s := int32(11); s <= 13; s++ {
		if _, ok := k.get(0, s); !ok {
			t.Fatalf("step %d lost across shrink", s)
		}
	}
}

// Sparse survivors spanning more than the target capacity must refuse to
// shrink (capacity >= span is the residue-distinctness invariant).
func TestDenseRingShrinkRefusesWideSpan(t *testing.T) {
	k := singleColKnow()
	k.put(0, 1, 1, 1)
	k.put(0, 33, 2, 1) // 33 ≡ 1 mod initRingSlots: conflict, span 33 -> cap 64
	if k.slots != 64 {
		t.Fatalf("slots = %d, want 64", k.slots)
	}
	for s := int32(2); s <= 16; s++ {
		k.put(0, s, uint64(s), 1)
	}
	// live 17 -> 16 crosses len/4, but survivors {1..15, 33} span 33 > 32:
	// the shrink must refuse rather than break residue distinctness.
	k.del(0, 16)
	if k.shrinks != 0 {
		t.Fatalf("shrank with live span still wide: %d", k.shrinks)
	}
	if _, ok := k.get(0, 33); !ok {
		t.Fatal("step 33 lost")
	}
	for s := int32(1); s <= 15; s++ {
		k.del(0, s)
	}
	k.del(0, 33) // live crosses 0: drained ring finally shrinks home
	if k.shrinks != 1 || k.slots != initRingSlots {
		t.Fatalf("drained ring did not shrink: shrinks %d slots %d", k.shrinks, k.slots)
	}
}

// Engine-level retire-on-frontier: a fault-free run must finish with every
// knowledge store empty and every ring back at its initial capacity — eager
// retirement frees each value as the last local consumer advances past it,
// and the final del of a grown ring shrinks it home.
func TestEagerRetirementDrainsKnowledge(t *testing.T) {
	cfg, rt := faultConfig(t)
	c := runChunkToCompletion(t, cfg, rt)
	for i := range c.procs {
		p := &c.procs[i]
		if p.know.live != 0 {
			t.Fatalf("pos %d: %d live slots after completion", i, p.know.live)
		}
		if want := int32(len(p.know.universe) * initRingSlots); p.know.slots != want {
			t.Fatalf("pos %d: %d slots after completion, want %d", i, p.know.slots, want)
		}
	}
}

// FuzzDenseKnowledge drives random (col, step) operation sequences against
// the dense store and the u64map oracle (plus a map of pending consumer
// counts) and asserts identical observable results. The universe is fixed and small so rings collide and grow; steps
// span enough range to force multi-doubling growth and wraparound. Shrinks
// fire inside del, so every shrink is checked against the oracle too: the
// live count, every stored value (final sweep), and the floor/peak slot
// invariants must hold after it.
func FuzzDenseKnowledge(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{1, 1, 200, 0, 1, 1, 8, 0, 0, 1, 200, 0, 2, 1, 200, 0})
	f.Add([]byte{3, 2, 5, 0, 1, 2, 5, 0, 0, 2, 5, 0, 3, 3, 9, 1, 2, 3, 9, 1})
	f.Add([]byte{0x81, 0, 4, 0, 0x82, 0, 4, 0, 0, 0, 4, 0, 0x82, 0, 4, 0, 0, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		universe := []int32{2, 5, 7, 9, 100}
		k := newDenseKnow(universe)
		oracle := newU64map()        // known values, keyed kkey(col, step)
		pending := map[uint64]bool{} // waiter anchors the oracle can't hold
		counts := map[uint64]int32{} // pending consumers of known values
		for len(data) >= 4 {
			op, ci := data[0]&3, int32(data[1])%int32(len(universe))
			alt := data[0]&0x80 != 0
			step := 1 + int32(data[2]) | int32(data[3]&0x0f)<<8
			data = data[4:]
			col := universe[ci]
			key := kkey(col, step)
			switch op {
			case 0: // get
				v, ok := k.get(ci, step)
				ov, ook := oracle.get(key)
				if ok != ook || (ok && v != ov) {
					t.Fatalf("get(%d,%d) = %d,%v; oracle %d,%v", col, step, v, ok, ov, ook)
				}
			case 1: // put, with 1 or 2 pending consumers
				val := uint64(step)*1000 + uint64(col)
				cons := int32(1)
				if alt {
					cons = 2
				}
				head := k.put(ci, step, val, cons)
				if pending[key] {
					if head < 0 {
						t.Fatalf("put(%d,%d) dropped a pending waiter chain", col, step)
					}
					delete(pending, key)
				} else if head != -1 {
					t.Fatalf("put(%d,%d) invented waiter chain %d", col, step, head)
				}
				oracle.put(key, val)
				counts[key] = cons
			case 2: // consume or del (engine only retires known values)
				if alt {
					k.consume(ci, step)
					if _, known := oracle.get(key); known {
						if counts[key]--; counts[key] == 0 {
							oracle.del(key)
						}
					}
					break
				}
				k.del(ci, step)
				if !pending[key] {
					oracle.del(key)
				}
			default: // wait: engine only waits when the value is unknown
				if k.has(ci, step) {
					continue
				}
				s := k.waiterSlot(ci, step)
				if s.step != step {
					t.Fatalf("waiterSlot(%d,%d) claimed step %d", col, step, s.step)
				}
				s.waitHead = 7 // chain a fake pool node, as addWaiter does
				pending[key] = true
			}
			if k.size() != oracle.size()+len(pending) {
				t.Fatalf("live %d != oracle %d + pending %d",
					k.size(), oracle.size(), len(pending))
			}
			if k.slots < int32(len(universe)*initRingSlots) {
				t.Fatalf("slots %d below the initRingSlots floor", k.slots)
			}
			if k.slotsPeak < k.slots {
				t.Fatalf("slotsPeak %d < slots %d", k.slotsPeak, k.slots)
			}
		}
		// Final sweep: every key the oracle holds must be readable densely.
		for ci, col := range universe {
			for step := int32(1); step <= 1+255+0x0f<<8; step++ {
				ov, ook := oracle.get(kkey(col, step))
				v, ok := k.get(int32(ci), step)
				if ok != ook || (ok && v != ov) {
					t.Fatalf("sweep (%d,%d): dense %d,%v oracle %d,%v", col, step, v, ok, ov, ook)
				}
			}
		}
	})
}
