package sim

import (
	"errors"
	"fmt"
)

// Event is a unit of future work. Fn runs when the virtual clock reaches At.
// Fired and cancelled events are recycled through a per-engine free list, so
// a *Event handle is only valid until the event fires or its cancellation is
// collected — exactly the lifetime timer handles have in the kernel.
type Event struct {
	At Time
	// next sits beside At: filing into a sorted near slot compares a
	// neighbour's At and follows its next, one cache line.
	next *Event // intrusive link in a wheel slot or the overflow list
	seq  uint64 // tie-break: FIFO among equal timestamps
	Fn   func()
	fn2  func(Time, any, any) // CallAt form: top-level fn + args, no closure
	a1   any
	a2   any
	dead bool // cancelled
}

// Cancelled reports whether the event was cancelled before it fired.
func (e *Event) Cancelled() bool { return e.dead }

// ErrHalted is returned by Run when Halt was called before the horizon.
var ErrHalted = errors.New("sim: halted")

// Engine is a single-threaded discrete-event scheduler. It is intentionally
// not safe for concurrent use: determinism requires a single logical thread
// of control, and all model code runs inside event callbacks.
//
// The event queue is a hierarchical timing wheel (see wheel.go), not a
// binary heap: schedule, cancel and dispatch are O(1) amortized, and the
// dispatch order is exactly (At, seq) — timestamp order with FIFO
// tie-breaking — the same total order the previous container/heap queue
// produced, so results are bit-identical across the two implementations.
type Engine struct {
	now Time
	// cur is the wheel reference point: every pending event is filed at
	// the level selected by the highest bit of (At ^ cur). It trails the
	// clock (cur <= now between dispatches) and advances only inside
	// takeNext, so scheduling — which requires At >= now — can never
	// land behind it.
	cur    Time
	near   nearWheel
	coarse [coarseLevels]coarseWheel
	// levelMask has bit 0 set iff the near wheel has any occupied slot
	// and bit l+1 set iff coarse level l does, so the dispatch scan finds
	// the lowest nonempty wheel with one bit op.
	levelMask uint32
	// overflow holds events beyond the wheels' span (At ^ cur covering
	// more than wheelSpan bits), as an unsorted FIFO list. It cascades
	// back into the wheels when every level drains (wheel.go).
	ofHead, ofTail *Event
	// nextEv caches the earliest pending event between dispatches; nil
	// means unknown. Maintained by peek/schedule/Cancel, cleared by Step.
	nextEv *Event
	npend  int      // live count of scheduled, uncancelled events
	free   []*Event // recycled event records
	seq    uint64
	halted bool
	rng    *RNG

	// Executed counts events dispatched since construction. Useful in tests
	// and for runaway detection.
	Executed uint64
}

// NewEngine returns an engine with its clock at zero and the given RNG seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Pending returns the number of scheduled, uncancelled events. The count is
// maintained live on schedule, cancel and dispatch, so invariant checkers
// may call it as often as they like without scanning the queue.
func (e *Engine) Pending() int { return e.npend }

// alloc pops a recycled event record or allocates a fresh one.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.dead = false
		return ev
	}
	return &Event{}
}

// release returns a fired or collected-cancelled event to the free list.
// Callers must have dropped or rewritten every handle to it by now; ev.dead
// stays true so a straggler's Cancel before reuse remains a no-op.
func (e *Engine) release(ev *Event) {
	ev.Fn, ev.fn2, ev.a1, ev.a2 = nil, nil, nil, nil
	e.free = append(e.free, ev)
}

// schedule files a freshly armed event into the wheel and keeps the
// peek cache and pending count current.
func (e *Engine) schedule(ev *Event) {
	e.npend++
	// A strictly earlier arrival becomes the new minimum; an equal
	// timestamp keeps the cached event, whose seq is smaller.
	if e.nextEv != nil && ev.At < e.nextEv.At {
		e.nextEv = ev
	}
	e.push(ev)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it is always a model bug, and silently clamping it would hide
// causality violations.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.At, ev.Fn, ev.seq = t, fn, e.seq
	e.seq++
	e.schedule(ev)
	return ev
}

// CallAt schedules fn(at, a1, a2) at absolute virtual time t. It is the
// allocation-free form of At for the hot path: with fn a top-level function
// and pointer-shaped arguments, scheduling reuses a recycled event record
// and allocates nothing, where a capturing closure passed to At costs one
// allocation per call.
func (e *Engine) CallAt(t Time, fn func(Time, any, any), a1, a2 any) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.At, ev.fn2, ev.a1, ev.a2, ev.seq = t, fn, a1, a2, e.seq
	e.seq++
	e.schedule(ev)
	return ev
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel marks ev so it will not fire. Cancelling an already-fired or
// already-cancelled event is a no-op. The record is recycled when its wheel
// slot is next walked, so the caller must drop the handle after cancelling.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.dead {
		return
	}
	ev.dead = true
	ev.Fn, ev.fn2, ev.a1, ev.a2 = nil, nil, nil, nil
	e.npend--
	if e.nextEv == ev {
		e.nextEv = nil
	}
}

// Halt stops Run before the horizon. Pending events are left in the queue.
func (e *Engine) Halt() { e.halted = true }

// Step dispatches the single earliest event, advancing the clock to it.
// It reports false when the queue is empty.
func (e *Engine) Step() bool {
	ev := e.nextEv
	e.nextEv = nil
	if ev != nil && uint64(ev.At^e.cur) < nearSpan && e.near.tail[nearSlotOf(ev.At)].next == ev {
		// peek already found the minimum and it heads its near slot:
		// pop it without re-scanning. (A cached minimum that is not
		// its slot's head sits behind cancelled records; takeNext
		// collects them.)
		e.popNear(nearSlotOf(ev.At))
	} else if ev = e.takeNext(); ev == nil {
		return false
	}
	e.now = ev.At
	// Tighten the wheel reference to the dispatch point. ev came from a
	// near-wheel slot, so cur and ev.At share every bit above the bottom
	// nearBits and no pending event changes level.
	e.cur = ev.At
	e.npend--
	fn, fn2, a1, a2 := ev.Fn, ev.fn2, ev.a1, ev.a2
	ev.Fn = nil
	ev.dead = true
	e.Executed++
	if fn2 != nil {
		fn2(e.now, a1, a2)
	} else {
		fn()
	}
	// Recycle only after the callback: it may hold ev's handle (a
	// timer re-arming itself) and must see it dead, not reused.
	e.release(ev)
	return true
}

// Run dispatches events until the clock would pass horizon, the queue
// drains, or Halt is called. The clock finishes at exactly horizon unless
// halted earlier. Events scheduled precisely at the horizon do fire.
func (e *Engine) Run(horizon Time) error {
	e.halted = false
	for !e.halted {
		next, ok := e.peek()
		if !ok || next.At > horizon {
			break
		}
		e.Step()
	}
	if e.halted {
		return ErrHalted
	}
	if e.now < horizon {
		e.now = horizon
	}
	return nil
}

// RunUntil dispatches every event scheduled strictly before t, then pauses.
// Unlike Run it does not advance the clock to t: the clock is left at the
// last dispatched event, so a caller may inject new events at any time >= t
// (via At) and resume with a later RunUntil or Run. This is the primitive
// the conservative shard scheduler (internal/par) builds its synchronization
// windows on: each shard burns events up to the window edge, cross-shard
// messages are injected at the barrier, and the next window resumes.
func (e *Engine) RunUntil(t Time) error {
	e.halted = false
	for !e.halted {
		next, ok := e.peek()
		if !ok || next.At >= t {
			break
		}
		e.Step()
	}
	if e.halted {
		return ErrHalted
	}
	return nil
}

// NextAt reports the timestamp of the earliest pending event. ok is false
// when the queue is empty.
func (e *Engine) NextAt() (Time, bool) {
	ev, ok := e.peek()
	if !ok {
		return 0, false
	}
	return ev.At, true
}

// RunUntilIdle dispatches events until the queue drains or Halt is called.
func (e *Engine) RunUntilIdle() error {
	e.halted = false
	for !e.halted && e.Step() {
	}
	if e.halted {
		return ErrHalted
	}
	return nil
}

// peek returns the earliest pending live event without dispatching it. The
// scan result is cached until the next dispatch, schedule of an earlier
// event, or cancellation of the cached minimum.
func (e *Engine) peek() (*Event, bool) {
	if e.nextEv == nil {
		e.nextEv = e.scanMin()
	}
	return e.nextEv, e.nextEv != nil
}
