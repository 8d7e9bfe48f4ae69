package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// ---------------------------------------------------------------------------
// Reference implementation: the engine contract on top of container/heap,
// exactly the queue the wheel replaced. The differential tests drive the
// reference and the real engine with the same randomized programs and demand
// identical dispatch order, Executed counts and Pending values.
// ---------------------------------------------------------------------------

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
	idx  int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	now      Time
	q        refHeap
	seq      uint64
	npend    int
	halted   bool
	executed uint64
}

func (e *refEngine) Now() Time    { return e.now }
func (e *refEngine) Pending() int { return e.npend }
func (e *refEngine) Halt()        { e.halted = true }

func (e *refEngine) At(t Time, fn func()) *refEvent {
	if t < e.now {
		panic(fmt.Sprintf("ref: scheduling at %v before now %v", t, e.now))
	}
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.npend++
	heap.Push(&e.q, ev)
	return ev
}

func (e *refEngine) Cancel(ev *refEvent) {
	if ev == nil || ev.dead {
		return
	}
	ev.dead = true
	ev.fn = nil
	e.npend--
}

func (e *refEngine) peek() *refEvent {
	for len(e.q) > 0 {
		if e.q[0].dead {
			heap.Pop(&e.q)
			continue
		}
		return e.q[0]
	}
	return nil
}

func (e *refEngine) NextAt() (Time, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

func (e *refEngine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	heap.Pop(&e.q)
	e.now = ev.at
	e.npend--
	e.executed++
	ev.dead = true
	ev.fn()
	return true
}

func (e *refEngine) Run(horizon Time) error {
	e.halted = false
	for !e.halted {
		ev := e.peek()
		if ev == nil || ev.at > horizon {
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

func (e *refEngine) RunUntil(t Time) error {
	e.halted = false
	for !e.halted {
		ev := e.peek()
		if ev == nil || ev.at >= t {
			break
		}
		e.Step()
	}
	if e.halted {
		return ErrHalted
	}
	return nil
}

func (e *refEngine) RunUntilIdle() error {
	e.halted = false
	for !e.halted && e.Step() {
	}
	if e.halted {
		return ErrHalted
	}
	return nil
}

// ---------------------------------------------------------------------------
// The differential driver. A program is interpreted twice through this
// queue-agnostic facade; any divergence in dispatch order, clocks, Executed,
// Pending or NextAt is a wheel bug (or a contract change).
// ---------------------------------------------------------------------------

type queueUnderTest struct {
	now         func() Time
	at          func(t Time, fn func()) any
	cancel      func(h any)
	step        func() bool
	run         func(h Time) error
	runUntil    func(t Time) error
	runUntilIdl func() error
	nextAt      func() (Time, bool)
	pending     func() int
	halt        func()
	executed    func() uint64
}

func wheelQUT(e *Engine) *queueUnderTest {
	return &queueUnderTest{
		now:         e.Now,
		at:          func(t Time, fn func()) any { return e.At(t, fn) },
		cancel:      func(h any) { e.Cancel(h.(*Event)) },
		step:        e.Step,
		run:         e.Run,
		runUntil:    e.RunUntil,
		runUntilIdl: e.RunUntilIdle,
		nextAt:      e.NextAt,
		pending:     e.Pending,
		halt:        e.Halt,
		executed:    func() uint64 { return e.Executed },
	}
}

func refQUT(e *refEngine) *queueUnderTest {
	return &queueUnderTest{
		now:         e.Now,
		at:          func(t Time, fn func()) any { return e.At(t, fn) },
		cancel:      func(h any) { e.Cancel(h.(*refEvent)) },
		step:        e.Step,
		run:         e.Run,
		runUntil:    e.RunUntil,
		runUntilIdl: e.RunUntilIdle,
		nextAt:      e.NextAt,
		pending:     e.Pending,
		halt:        e.Halt,
		executed:    func() uint64 { return e.executed },
	}
}

// splitmix64 gives every event id an independent deterministic stream, so
// callback behaviour depends only on the id, never on host state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// delayFor draws a delay for event id across every wheel regime: same-slot,
// near wheel, each coarse level, and past the overflow span.
func delayFor(id uint64, bucket int) Time {
	h := splitmix64(id*6364136223846793005 + uint64(bucket))
	switch bucket % 6 {
	case 0:
		return Time(h % 16) // same/adjacent near slot, many ties
	case 1:
		return Time(h % 8192) // near wheel
	case 2:
		return Time(h % (1 << 21)) // coarse level 0/1
	case 3:
		return Time(h % (1 << 30)) // coarse level 2
	case 4:
		return Time(h % (1 << 47)) // deep coarse levels
	default:
		return Time(1<<53 + h%(1<<55)) // overflow list
	}
}

// runProgram interprets the seeded op program against q, returning the
// dispatch log. Event callbacks append their id, sometimes re-arm children
// and sometimes cancel the oldest live handle — all decided by id-derived
// hashes, so both interpretations make identical choices as long as their
// dispatch orders match (which is exactly what the test asserts).
func runProgram(t *testing.T, seed int64, q *queueUnderTest) (log []uint64, executed uint64, pending int) {
	rng := rand.New(rand.NewSource(seed))
	var nextID uint64
	handles := make(map[uint64]any)
	order := make([]uint64, 0, 64) // live ids, oldest first

	dropHandle := func(id uint64) {
		delete(handles, id)
		for i, v := range order {
			if v == id {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
	}

	var schedule func(at Time, id uint64)
	fire := func(id uint64) func() {
		return func() {
			log = append(log, id)
			dropHandle(id)
			h := splitmix64(id)
			if h%4 == 0 { // re-arm a child
				cid := nextID
				nextID++
				schedule(q.now()+delayFor(cid, int(h>>8)), cid)
			}
			if h%5 == 0 && len(order) > 0 { // cancel the oldest live event
				victim := order[0]
				q.cancel(handles[victim])
				dropHandle(victim)
			}
			if h%97 == 0 {
				q.halt()
			}
		}
	}
	schedule = func(at Time, id uint64) {
		handles[id] = q.at(at, fire(id))
		order = append(order, id)
	}

	for op := 0; op < 400; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // schedule
			id := nextID
			nextID++
			schedule(q.now()+delayFor(id, rng.Intn(1000)), id)
		case 4: // cancel a random live handle
			if len(order) > 0 {
				victim := order[rng.Intn(len(order))]
				q.cancel(handles[victim])
				dropHandle(victim)
			}
		case 5, 6: // step
			q.step()
		case 7: // bounded run (ignore ErrHalted; state is still compared)
			_ = q.run(q.now() + Time(rng.Int63n(1<<22)))
		case 8: // window run
			_ = q.runUntil(q.now() + Time(rng.Int63n(1<<14)))
		case 9: // observe
			at, ok := q.nextAt()
			log = append(log, ^uint64(0)) // marker
			if ok {
				log = append(log, uint64(at))
			}
			log = append(log, uint64(q.pending()))
		}
	}
	// Drain everything, overflow cascades included.
	for q.step() {
	}
	return log, q.executed(), q.pending()
}

// TestWheelMatchesHeapReference is the differential property test: the
// timing wheel and the container/heap reference must produce identical
// dispatch logs, Executed counts and Pending values for randomized
// schedule/cancel/re-arm/Halt programs spanning every wheel level.
func TestWheelMatchesHeapReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			wl, we, wp := runProgram(t, seed, wheelQUT(NewEngine(uint64(seed))))
			rl, re, rp := runProgram(t, seed, refQUT(&refEngine{}))
			if len(wl) != len(rl) {
				t.Fatalf("dispatch log lengths differ: wheel %d, heap %d", len(wl), len(rl))
			}
			for i := range wl {
				if wl[i] != rl[i] {
					t.Fatalf("dispatch logs diverge at %d: wheel %d, heap %d", i, wl[i], rl[i])
				}
			}
			if we != re {
				t.Fatalf("Executed differs: wheel %d, heap %d", we, re)
			}
			if wp != rp || wp != 0 {
				t.Fatalf("Pending after drain: wheel %d, heap %d (want 0)", wp, rp)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Directed edge cases.
// ---------------------------------------------------------------------------

// TestWheelFarFutureOverflowCascade schedules events beyond the wheels'
// span, interleaved with near events, and checks the overflow list cascades
// back through every level in (At, seq) order.
func TestWheelFarFutureOverflowCascade(t *testing.T) {
	e := NewEngine(1)
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }

	far := Time(1) << 55 // beyond wheelSpan from cur=0
	e.At(far+5, rec(3))
	e.At(2, rec(0))
	e.At(far+5, rec(4)) // FIFO tie with id 3 across an overflow cascade
	e.At(far, rec(2))
	e.At(8191, rec(1))

	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch order = %v, want %v", got, want)
	}
	if e.now != far+5 {
		t.Fatalf("clock = %v, want %v", e.now, far+5)
	}
}

// TestWheelOverflowRecascade forces an overflow cascade whose survivors are
// still beyond the wheel span and must re-enter the overflow list.
func TestWheelOverflowRecascade(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(1<<55, func() { got = append(got, 0) })
	e.At(1<<55+1<<54, func() { got = append(got, 1) }) // > span even from 1<<55
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1]" {
		t.Fatalf("dispatch order = %v, want [0 1]", got)
	}
}

// TestWheelLevelBoundaries exercises delays at exact level-width powers,
// one below and one above, from a non-zero clock position.
func TestWheelLevelBoundaries(t *testing.T) {
	e := NewEngine(1)
	e.At(12345, func() {})
	e.Step() // now = 12345, off slot-zero alignment

	base := e.Now()
	var deltas []Time
	for shift := uint(0); shift <= wheelSpan; shift += 4 {
		w := Time(1) << shift
		deltas = append(deltas, w-1, w, w+1)
	}
	type item struct {
		at  Time
		seq int
	}
	var want []item
	for i, d := range deltas {
		want = append(want, item{base + d, i})
	}
	var got []item
	for i, d := range deltas {
		i, at := i, base+d
		e.At(at, func() { got = append(got, item{at, i}) })
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Expected order: by (At, insertion seq).
	for i := 0; i < len(want); i++ {
		min := i
		for j := i + 1; j < len(want); j++ {
			if want[j].at < want[min].at || (want[j].at == want[min].at && want[j].seq < want[min].seq) {
				min = j
			}
		}
		want[i], want[min] = want[min], want[i]
	}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestWheelInjectEarlierAfterPeek reproduces the conservative-window
// pattern: RunUntil peeks past the window edge (the next pending event is
// far in the future), then the barrier injects a message earlier than that
// pending minimum. The wheel reference must not have advanced past the
// injection time.
func TestWheelInjectEarlierAfterPeek(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.At(1<<30, func() { got = append(got, "far") })
	if err := e.RunUntil(1000); err != nil { // dispatches nothing, peeks the far event
		t.Fatal(err)
	}
	if at, ok := e.NextAt(); !ok || at != 1<<30 {
		t.Fatalf("NextAt = %v,%v", at, ok)
	}
	e.At(2000, func() { got = append(got, "injected") }) // earlier than the peeked min
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[injected far]" {
		t.Fatalf("dispatch order = %v, want [injected far]", got)
	}
}

// TestWheelReanchorAfterDrain drains the queue after a far-future cascade
// (the wheel reference has jumped ahead of a fresh schedule's natural slot)
// and checks new events still dispatch in order.
func TestWheelReanchorAfterDrain(t *testing.T) {
	e := NewEngine(1)
	e.At(1<<40, func() {})
	if !e.Step() {
		t.Fatal("step failed")
	}
	if e.Step() {
		t.Fatal("queue should be empty") // drained: takeNext re-anchors cur
	}
	var got []int
	e.At(e.Now()+3, func() { got = append(got, 1) })
	e.At(e.Now()+1, func() { got = append(got, 0) })
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1]" {
		t.Fatalf("dispatch order = %v, want [0 1]", got)
	}
}

// TestWheelCancelInterleaving cancels events in every structural position:
// slot head, slot tail, sole occupant, coarse level, overflow list.
func TestWheelCancelInterleaving(t *testing.T) {
	e := NewEngine(1)
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }

	h1 := e.At(10, rec(-1)) // head of a shared slot
	e.At(10, rec(0))
	e.At(10, rec(1))
	h2 := e.At(20, rec(-1)) // sole occupant
	e.At(30, rec(2))
	h3 := e.At(1<<20, rec(-1)) // coarse level
	e.At(1<<20+1, rec(3))
	h4 := e.At(1<<60, rec(-1)) // overflow
	e.At(1<<60, rec(4))

	for _, h := range []*Event{h1, h2, h3, h4} {
		e.Cancel(h)
	}
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending = %d, want 5", got)
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Fatalf("dispatch order = %v, want [0 1 2 3 4]", got)
	}
	if e.Pending() != 0 || e.Executed != 5 {
		t.Fatalf("Pending=%d Executed=%d, want 0/5", e.Pending(), e.Executed)
	}
}

// TestBatchCallAtOrdering checks batch-scheduled events keep global FIFO
// order against interleaved regular schedules, across slot and level
// boundaries.
func TestBatchCallAtOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	rec := func(_ Time, a1, _ any) { got = append(got, a1.(int)) }

	e.CallAt(100, rec, 0, nil)
	b := e.BeginBatch()
	b.CallAt(100, rec, 1, nil)   // same slot as the regular schedule
	b.CallAt(100, rec, 2, nil)   // cached-tail fast path
	b.CallAt(150, rec, 3, nil)   // new slot
	b.CallAt(1<<20, rec, 5, nil) // coarse level
	b.CallAt(1<<60, rec, 6, nil) // overflow
	e.CallAt(200, rec, 4, nil)   // interleaved regular schedule

	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4 5 6]" {
		t.Fatalf("dispatch order = %v, want [0 1 2 3 4 5 6]", got)
	}
}

// TestBatchCallAtPanics checks the cursor's contract violations panic.
func TestBatchCallAtPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	e := NewEngine(1)
	e.At(50, func() {})
	e.Run(50)
	rec := func(_ Time, _, _ any) {}
	mustPanic("past schedule", func() {
		b := e.BeginBatch()
		b.CallAt(e.Now()-1, rec, nil, nil)
	})
	mustPanic("decreasing times", func() {
		b := e.BeginBatch()
		b.CallAt(e.Now()+100, rec, nil, nil)
		b.CallAt(e.Now()+99, rec, nil, nil)
	})
}

// TestPendingCounterLive checks Pending across schedule, cancel,
// double-cancel, dispatch and drain.
func TestPendingCounterLive(t *testing.T) {
	e := NewEngine(1)
	if e.Pending() != 0 {
		t.Fatal("fresh engine should have 0 pending")
	}
	h1 := e.At(10, func() {})
	h2 := e.At(20, func() {})
	e.At(1<<55, func() {}) // overflow resident
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	e.Cancel(h1)
	e.Cancel(h1) // double-cancel is a no-op
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Step()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Cancel(h2) // already fired: no-op
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
}

// TestNearSlotSortedInsert files events into one 4 ns near slot out of
// time order and checks they dispatch in (At, seq) order: a later
// timestamp appends, an earlier one walks the slot list.
func TestNearSlotSortedInsert(t *testing.T) {
	e := NewEngine(1)
	var got []int
	rec := func(_ Time, a1, _ any) { got = append(got, a1.(int)) }
	e.CallAt(103, rec, 6, nil)
	e.CallAt(101, rec, 2, nil) // before the tail
	e.CallAt(100, rec, 0, nil) // new head
	e.CallAt(101, rec, 3, nil) // after its equal timestamp
	e.CallAt(102, rec, 5, nil)
	e.CallAt(100, rec, 1, nil)
	e.CallAt(101, rec, 4, nil)
	e.CallAt(103, rec, 7, nil) // append
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4 5 6 7]" {
		t.Fatalf("dispatch order = %v, want [0 1 2 3 4 5 6 7]", got)
	}
}

// TestBatchSameTimestampInterleaved checks the cursor's same-timestamp
// path against regular schedules that land between its calls: at the
// same timestamp (the cursor must link after them) and later in the same
// near slot (the cursor must link before them).
func TestBatchSameTimestampInterleaved(t *testing.T) {
	e := NewEngine(1)
	var got []int
	rec := func(_ Time, a1, _ any) { got = append(got, a1.(int)) }
	e.CallAt(203, rec, 5, nil) // same 4 ns slot, later timestamp
	b := e.BeginBatch()
	b.CallAt(201, rec, 0, nil)
	e.CallAt(201, rec, 1, nil) // regular schedule between batch calls
	b.CallAt(201, rec, 2, nil)
	b.CallAt(201, rec, 3, nil)
	c := b.CallAt(202, rec, -1, nil)
	e.Cancel(c)
	b.CallAt(202, rec, 4, nil) // previous cursor event cancelled
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4 5]" {
		t.Fatalf("dispatch order = %v, want [0 1 2 3 4 5]", got)
	}
}

// TestNearWheelRandomizedOrder drives dense schedules into a few near
// slots — regular and batched, with cancellations and peeks between
// steps — and checks the dispatch order is exactly (At, seq).
func TestNearWheelRandomizedOrder(t *testing.T) {
	type stamp struct {
		at  Time
		seq int
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(uint64(seed))
		var got []stamp
		rec := func(at Time, a1, _ any) { got = append(got, stamp{at, a1.(int)}) }
		seq := 0
		var live []*Event
		for op := 0; op < 600; op++ {
			now := e.Now()
			switch r := rng.Intn(10); {
			case r < 4:
				live = append(live, e.CallAt(now+Time(rng.Intn(24)), rec, seq, nil))
				seq++
			case r < 6:
				b := e.BeginBatch()
				at := now + Time(rng.Intn(12))
				for k := rng.Intn(5); k >= 0; k-- {
					live = append(live, b.CallAt(at, rec, seq, nil))
					seq++
					if rng.Intn(3) == 0 {
						e.CallAt(at+Time(rng.Intn(3)), rec, seq, nil)
						seq++
					}
					at += Time(rng.Intn(2))
				}
			case r < 7:
				if len(live) > 0 {
					j := rng.Intn(len(live))
					if !live[j].Cancelled() {
						e.Cancel(live[j])
					}
					live = append(live[:j], live[j+1:]...)
				}
			case r < 8:
				e.NextAt()
			default:
				if e.Step() {
					live = live[:0] // fired handles are recycled; drop them all
				}
			}
		}
		for e.Step() {
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if b.at < a.at || b.at == a.at && b.seq < a.seq {
				t.Fatalf("seed %d: dispatch %d (%v) after %d (%v)", seed, b.seq, b.at, a.seq, a.at)
			}
		}
	}
}
