package sim

import (
	"fmt"
	"math/bits"
)

// Hierarchical timing wheel — the engine's event queue.
//
// # Layout
//
// A near wheel plus five coarse wheels. An event at absolute time At is
// filed by its XOR distance from the wheel reference `cur`: within the
// reference's 8192 ns block it lands on the near wheel — 2048 slots of
// 4 ns indexed by bits 2..12 of At — and beyond that on coarse level l in
// {0..4}, 256 slots of width 2^(13+8l) ns indexed by
// (At >> (13+8l)) & 255, where l is selected by the highest bit in which
// At differs from the reference. Events differing above bit 52 — more
// than ~104 virtual days out — go to an unsorted overflow FIFO. The near
// span is sized so the datapath's common case (delays of a few hundred
// nanoseconds to a few microseconds: stage service times, wire and IRQ
// delays) schedules and dispatches without ever touching a coarse level;
// the 4 ns slot width keeps the near wheel at one pointer per slot, 16 KiB
// per engine, so the par runtime's many engines stay cache-resident.
//
// # Ordering
//
// Each slot is an intrusive singly-linked list of *Event reusing the
// engine's free-list records. Every insertion into a slot carries a larger
// seq than every event already in it: a fresh schedule takes the next seq,
// and a cascade re-files into finer levels that are empty, in list order.
// Coarse slots and the overflow list simply append, so they stay
// seq-ascending. A near slot spans four timestamps, so its list is kept
// sorted by (At, seq): an insertion appends when At >= the tail's At (the
// common case) and otherwise walks the short list to the first later
// timestamp. Slots cover disjoint ascending ranges of the reference's
// block, so the head of the lowest occupied near slot is the global
// minimum and dispatch order is exactly (At, seq).
//
// # Cascade rule
//
// When the near wheel drains, the earliest occupied slot of the lowest
// occupied coarse level is removed whole, the reference advances to that
// slot's start time, and the slot's list is re-filed in order. Every
// event lands strictly finer (its time differs from the slot start only
// below the slot's width), re-filing preserves the orders above, and the
// reference move is safe: the slot start shares all bits above the slot's
// level with the old reference, so no other pending event changes level
// or slot. Repeating the rule funnels the earliest slot down to the near
// wheel in at most coarseLevels steps. When all wheels are empty the
// overflow list cascades the same way: the reference jumps to the
// earliest overflow timestamp and every event within wheel span is
// re-filed, in list order (seq-ascending, so FIFO survives).
//
// The reference only moves forward, inside takeNext and Step, and only to
// the start of a slot that precedes every pending event — never past the
// clock's next dispatch. Scheduling requires At >= now >= cur, so a fresh
// event can never land behind the reference; when the queue drains
// completely, takeNext re-anchors the reference at the clock for the same
// reason.
//
// Cancellation is O(1) and lazy: the event is flagged dead and its record
// is recycled when a scan or cascade next walks its slot.

const (
	// Near wheel: an 8192 ns span filed in 2048 slots of 4 ns.
	nearBits      = 13 // span bits: events within cur's 2^13 ns block
	nearSpan      = 1 << nearBits
	nearSpanMask  = nearSpan - 1
	nearSlotShift = 2 // slot width 2^2 ns
	nearSlots     = nearSpan >> nearSlotShift
	nearWords     = nearSlots / 64 // 32, one summary bit each

	// Coarse wheels: 256 slots each, widths 2^13 … 2^45 ns.
	coarseBits   = 8
	coarseSlots  = 1 << coarseBits
	coarseMask   = coarseSlots - 1
	coarseWords  = coarseSlots / 64
	coarseLevels = 5

	// wheelSpan is the number of low bits of (At ^ cur) the wheels cover;
	// events differing from the reference at or above this bit overflow.
	wheelSpan = nearBits + coarseBits*coarseLevels // 53
)

// nearWheel is the 4 ns-slot wheel. Each slot is a circular list held by
// its tail (tail.next is the head), so a slot costs one pointer; a
// two-tier occupancy bitmap (one bit per slot, one summary bit per
// 64-slot word) finds the earliest occupied slot with two TrailingZeros.
type nearWheel struct {
	tail   [nearSlots]*Event
	occ    [nearWords]uint64
	occSum uint32
}

// nearSlotOf returns the near slot an event at t files into.
func nearSlotOf(t Time) int { return int(uint64(t)&nearSpanMask) >> nearSlotShift }

// firstSlot returns the lowest occupied slot index. The caller guarantees
// the wheel is nonempty (levelMask bit 0 set).
func (lv *nearWheel) firstSlot() int {
	w := bits.TrailingZeros32(lv.occSum)
	return w<<6 | bits.TrailingZeros64(lv.occ[w])
}

// coarseWheel is one 256-slot wheel with a single summary word over its
// four bitmap words.
type coarseWheel struct {
	head   [coarseSlots]*Event
	tail   [coarseSlots]*Event
	occ    [coarseWords]uint64
	occSum uint32 // bit w set iff occ[w] != 0
}

// firstSlot returns the lowest occupied slot index; the caller guarantees
// the level is nonempty.
func (lv *coarseWheel) firstSlot() int {
	w := bits.TrailingZeros32(lv.occSum)
	return w<<6 | bits.TrailingZeros64(lv.occ[w])
}

// pushNear files ev into near slot i, keeping the slot sorted by
// (At, seq): ev carries the largest seq in the slot, so it goes after
// every event with At <= ev.At. Appending is the common case; an earlier
// timestamp than the tail's walks the slot in insertBefore.
func (e *Engine) pushNear(i int, ev *Event) {
	lv := &e.near
	t := lv.tail[i]
	if t == nil {
		ev.next = ev
		lv.tail[i] = ev
		lv.occ[i>>6] |= 1 << (uint(i) & 63)
		lv.occSum |= 1 << uint(i>>6)
		e.levelMask |= 1
		return
	}
	if ev.At < t.At {
		insertBefore(t, ev)
		return
	}
	ev.next = t.next
	t.next = ev
	lv.tail[i] = ev
}

// insertBefore links ev into the circular slot list whose tail t is later
// than ev, after every event with At <= ev.At; the walk stops before t.
func insertBefore(t, ev *Event) {
	p := t
	for p.next.At <= ev.At {
		p = p.next
	}
	ev.next = p.next
	p.next = ev
}

// insertNearAfter files ev, which shares p's timestamp and carries a larger
// seq, into p's near slot: after p and after any later-filed events at the
// same timestamp.
func (e *Engine) insertNearAfter(p, ev *Event) {
	i := nearSlotOf(ev.At)
	t := e.near.tail[i]
	for p != t && p.next.At <= ev.At {
		p = p.next
	}
	ev.next = p.next
	p.next = ev
	if p == t {
		e.near.tail[i] = ev
	}
}

// popNear unlinks and returns the head of the nonempty near slot i.
func (e *Engine) popNear(i int) *Event {
	t := e.near.tail[i]
	ev := t.next
	if ev == t {
		e.near.tail[i] = nil
		e.clearNear(i)
	} else {
		t.next = ev.next
	}
	ev.next = nil
	return ev
}

// clearNear marks near slot i empty, dropping the levelMask bit when the
// whole wheel emptied.
func (e *Engine) clearNear(i int) {
	lv := &e.near
	w := i >> 6
	lv.occ[w] &^= 1 << (uint(i) & 63)
	if lv.occ[w] == 0 {
		lv.occSum &^= 1 << uint(w)
		if lv.occSum == 0 {
			e.levelMask &^= 1
		}
	}
}

// pushCoarseAt appends ev to slot i of coarse level l.
func (e *Engine) pushCoarseAt(l, i int, ev *Event) {
	lv := &e.coarse[l]
	ev.next = nil
	if lv.tail[i] == nil {
		lv.head[i] = ev
		lv.occ[i>>6] |= 1 << (uint(i) & 63)
		lv.occSum |= 1 << uint(i>>6)
		e.levelMask |= 2 << uint(l)
	} else {
		lv.tail[i].next = ev
	}
	lv.tail[i] = ev
}

// clearCoarse marks slot i of coarse level l empty, dropping the level's
// mask bit when it emptied.
func (e *Engine) clearCoarse(l, i int) {
	lv := &e.coarse[l]
	w := i >> 6
	lv.occ[w] &^= 1 << (uint(i) & 63)
	if lv.occ[w] == 0 {
		lv.occSum &^= 1 << uint(w)
		if lv.occSum == 0 {
			e.levelMask &^= 2 << uint(l)
		}
	}
}

// coarseLevelOf maps the XOR distance d (>= nearSlots, below the overflow
// span) to the coarse level covering it.
func coarseLevelOf(d uint64) int {
	return (bits.Len64(d) - nearBits - 1) / coarseBits
}

// push files ev according to At's distance from the reference. Appending
// keeps slot lists seq-ascending.
func (e *Engine) push(ev *Event) {
	d := uint64(ev.At ^ e.cur)
	if d < nearSpan {
		e.pushNear(nearSlotOf(ev.At), ev)
		return
	}
	if d>>wheelSpan != 0 {
		e.pushOverflow(ev)
		return
	}
	l := coarseLevelOf(d)
	i := int((uint64(ev.At) >> uint(nearBits+l*coarseBits)) & coarseMask)
	e.pushCoarseAt(l, i, ev)
}

// pushOverflow appends ev to the overflow FIFO.
func (e *Engine) pushOverflow(ev *Event) {
	ev.next = nil
	if e.ofTail == nil {
		e.ofHead = ev
	} else {
		e.ofTail.next = ev
	}
	e.ofTail = ev
}

// takeNext removes and returns the earliest live event, cascading coarse
// slots toward the near wheel as the search narrows. It returns nil only
// when nothing is pending, after re-anchoring the reference at the clock.
func (e *Engine) takeNext() *Event {
	for {
		if e.levelMask&1 != 0 {
			ev := e.popNear(e.near.firstSlot())
			if ev.dead {
				e.release(ev)
				continue
			}
			return ev
		}
		if e.cascade() {
			continue
		}
		// Nothing pending anywhere. Re-anchor at the clock so events
		// scheduled after an exhausted far-future cascade still land
		// at or ahead of the reference.
		e.cur = e.now
		return nil
	}
}

// cascade redistributes the earliest occupied coarse slot one step finer,
// advancing the wheel reference to the slot's start. It reports false
// when every wheel and the overflow list are empty.
func (e *Engine) cascade() bool {
	if e.levelMask == 0 {
		return e.cascadeOverflow()
	}
	l := bits.TrailingZeros32(e.levelMask >> 1)
	lv := &e.coarse[l]
	i := lv.firstSlot()
	head := lv.head[i]
	lv.head[i], lv.tail[i] = nil, nil
	e.clearCoarse(l, i)
	shift := uint(nearBits + l*coarseBits)
	blockMask := Time(1)<<(shift+coarseBits) - 1
	e.cur = e.cur&^blockMask | Time(i)<<shift
	for head != nil {
		ev := head
		head = ev.next
		if ev.dead {
			ev.next = nil
			e.release(ev)
			continue
		}
		e.push(ev)
	}
	return true
}

// cascadeOverflow jumps the reference to the earliest live overflow
// timestamp and re-files every overflow event, in order; events still
// beyond the wheel span re-enter the overflow list. Cancelled records are
// collected on the way. Reports false when no live event remains.
func (e *Engine) cascadeOverflow() bool {
	if e.ofHead == nil {
		return false
	}
	var head, tail *Event
	min := Time(-1)
	for ev := e.ofHead; ev != nil; {
		next := ev.next
		if ev.dead {
			ev.next = nil
			e.release(ev)
		} else {
			if min < 0 || ev.At < min {
				min = ev.At
			}
			ev.next = nil
			if tail == nil {
				head = ev
			} else {
				tail.next = ev
			}
			tail = ev
		}
		ev = next
	}
	e.ofHead, e.ofTail = nil, nil
	if head == nil {
		return false
	}
	e.cur = min
	for ev := head; ev != nil; {
		next := ev.next
		e.push(ev)
		ev = next
	}
	return true
}

// scanMin finds the earliest live event without advancing the wheel
// reference, so it is safe between dispatches (RunUntil peeks across
// barrier windows where new events may still arrive earlier than the
// current minimum). Cancelled records encountered on the way are unlinked
// and recycled.
func (e *Engine) scanMin() *Event {
	for {
		// Near wheel: the first occupied slot is sorted by (At, seq),
		// so its first live head is the global minimum.
		if e.levelMask&1 != 0 {
			i := e.near.firstSlot()
			ev := e.near.tail[i].next
			if !ev.dead {
				return ev
			}
			e.popNear(i)
			e.release(ev)
			continue
		}
		if e.levelMask == 0 {
			return e.overflowMin()
		}
		// Coarse levels: slots mix timestamps, so take the minimum of
		// the first occupied slot — disjoint ascending slot ranges and
		// the level hierarchy make it the global minimum. A slot that
		// held only cancelled events empties here; rescan.
		l := bits.TrailingZeros32(e.levelMask >> 1)
		lv := &e.coarse[l]
		if best := e.slotMin(l, lv, lv.firstSlot()); best != nil {
			return best
		}
	}
}

// slotMin unlinks cancelled events from slot i of coarse level l and
// returns the live event with the smallest (At, seq), or nil if the slot
// empties. The list is seq-ascending, so among equal timestamps the first
// found wins.
func (e *Engine) slotMin(l int, lv *coarseWheel, i int) *Event {
	var best, prev *Event
	for ev := lv.head[i]; ev != nil; {
		next := ev.next
		if ev.dead {
			if prev == nil {
				lv.head[i] = next
			} else {
				prev.next = next
			}
			if next == nil {
				lv.tail[i] = prev
			}
			ev.next = nil
			e.release(ev)
		} else {
			if best == nil || ev.At < best.At {
				best = ev
			}
			prev = ev
		}
		ev = next
	}
	if lv.head[i] == nil {
		e.clearCoarse(l, i)
		return nil
	}
	return best
}

// overflowMin returns the live overflow event with the smallest (At, seq),
// collecting cancelled records, or nil when none remain.
func (e *Engine) overflowMin() *Event {
	var best, prev *Event
	for ev := e.ofHead; ev != nil; {
		next := ev.next
		if ev.dead {
			if prev == nil {
				e.ofHead = next
			} else {
				prev.next = next
			}
			if next == nil {
				e.ofTail = prev
			}
			ev.next = nil
			e.release(ev)
		} else {
			if best == nil || ev.At < best.At {
				best = ev
			}
			prev = ev
		}
		ev = next
	}
	return best
}

// Batch is an insertion cursor for scheduling a run of CallAt events at
// nondecreasing timestamps: an event sharing the previous event's
// timestamp is linked in right after it instead of being filed from the
// slot head. This is how the parallel runtime injects a barrier window's
// cross-shard messages — one cursor pass instead of N independent queue
// pushes.
//
// A cursor is only valid while the engine is between dispatches: any
// Step/Run in between may move the wheel reference. Obtaining a cursor is
// free; take a fresh one per run.
type Batch struct {
	e    *Engine
	prev *Event // the cursor's previous event; nil before the first
	last Time   // prev's timestamp
}

// BeginBatch returns an insertion cursor for a nondecreasing run of
// CallAt schedules.
func (e *Engine) BeginBatch() Batch { return Batch{e: e} }

// CallAt schedules fn(t, a1, a2) at absolute time t, exactly like
// Engine.CallAt but through the batch cursor. Times must be nondecreasing
// across one cursor's calls; interleaving with the engine's own schedule
// calls is allowed and keeps global FIFO order (seq is shared).
func (b *Batch) CallAt(t Time, fn func(Time, any, any), a1, a2 any) *Event {
	e := b.e
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	p := b.prev
	if p != nil && t < b.last {
		panic(fmt.Sprintf("sim: batch times must be nondecreasing (%v after %v)", t, b.last))
	}
	ev := e.alloc()
	ev.At, ev.fn2, ev.a1, ev.a2, ev.seq = t, fn, a1, a2, e.seq
	e.seq++
	e.npend++
	if e.nextEv != nil && t < e.nextEv.At {
		e.nextEv = ev
	}
	if p != nil && t == b.last && t == p.At && !p.dead && uint64(t^e.cur) < nearSpan {
		// Same timestamp, same near slot, and p is still linked in it:
		// nothing dispatched since, and a live record is never recycled.
		e.insertNearAfter(p, ev)
	} else {
		e.push(ev)
	}
	b.prev, b.last = ev, t
	return ev
}
