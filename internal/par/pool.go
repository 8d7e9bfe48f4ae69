package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/sim"
)

// spinFor bounds how long a waiting worker polls before it parks:
// several cluster windows' wall time, so back-to-back windows hand over
// without a trip through the Go scheduler, while a long serial stretch
// between parallel windows costs no more CPU than that. Bounding by time
// rather than by poll count keeps the bound the same under the race
// detector, whose atomics are orders of magnitude slower.
const spinFor = 100 * time.Microsecond

// spinCheck is how many polls pass between clock reads.
const spinCheck = 256

// pool runs one Group.Run's windows on the calling goroutine (the
// coordinator, worker 0) plus n-1 persistent helper goroutines.
//
// Shard i belongs to worker i%n for the whole run, so its engine stays in
// one core's cache: a window queues each active shard on its owner's
// queue, and every worker drains its own queue first. A worker that runs
// dry claims shards still queued on the others. So the coordinator never
// waits for a helper that has not started — one still parked, or
// descheduled on a busy machine — only for shards already running; and
// one slow shard does not leave the other workers idle.
type pool struct {
	n       int
	epoch   uint32   // the current window's number
	end     sim.Time // the current window's exclusive bound
	queues  []queue  // per worker; queues[0] is the coordinator's
	helpers []*helper
	// left counts the window's shards not yet finished; the worker that
	// finishes the last one signals the coordinator.
	left    atomic.Int32
	barrier waiter
	stop    atomic.Bool
	done    sync.WaitGroup
}

// queue is one worker's share of a window. Its shards are claimed
// through word — epoch<<32 | len<<16 | next — by the owner and by
// thieves alike, so each runs exactly once, and a worker arriving after
// the window has moved on claims nothing.
type queue struct {
	word   atomic.Uint64
	shards []*Shard
	// Keep each queue's claim word off its neighbours' cache lines.
	_ [32]byte
}

// maxQueue bounds a queue's length to its 16 bits in the claim word.
const maxQueue = 1<<16 - 1

// claim takes the next unclaimed shard of window epoch, if any.
func (q *queue) claim(epoch uint32) (*Shard, bool) {
	for {
		v := q.word.Load()
		if uint32(v>>32) != epoch || v>>16&maxQueue <= v&maxQueue {
			return nil, false
		}
		if q.word.CompareAndSwap(v, v+1) {
			return q.shards[v&maxQueue], true
		}
	}
}

// helper is one persistent worker's mailbox.
type helper struct {
	// posted carries the epoch of the latest window handed over; the
	// queues and pool.end are written before it.
	posted atomic.Uint64
	mail   waiter
}

// waiter lets one goroutine spin and then block until another signals
// that its condition holds.
type waiter struct {
	// parked is set while the waiting goroutine blocks on wake.
	parked atomic.Bool
	wake   chan struct{}
}

func newWaiter() waiter { return waiter{wake: make(chan struct{}, 1)} }

// wait returns once ready reports true: it polls for up to spinFor, then
// parks until signal. Whoever clears parked owns the wake token: signal
// clears it and sends, or wait clears it itself on seeing ready first,
// and then no token is sent. A wake-up rechecks ready, because a signal
// can arrive late: a worker that finished the previous window's last
// shard may only reach signal once the coordinator already waits on the
// next window.
func (w *waiter) wait(ready func() bool) {
	start := time.Now()
	for spins := 1; !ready(); spins++ {
		if spins%spinCheck != 0 || time.Since(start) < spinFor {
			continue
		}
		w.parked.Store(true)
		if !ready() || !w.parked.CompareAndSwap(true, false) {
			<-w.wake
		}
	}
}

// signal wakes the waiter if it has parked. Call it after making the
// waiter's condition true.
func (w *waiter) signal() {
	if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
}

// newPool sizes the pool from workers, the shard count and GOMAXPROCS —
// a spinning helper beyond the processors available only steals time
// from the workers that have shards to run — and starts the helpers.
func newPool(workers, shards int) *pool {
	n := min(workers, shards, runtime.GOMAXPROCS(0))
	if n <= 1 {
		return nil
	}
	p := &pool{n: n, queues: make([]queue, n), helpers: make([]*helper, n-1), barrier: newWaiter()}
	p.done.Add(n - 1)
	for i := range p.helpers {
		h := &helper{mail: newWaiter()}
		p.helpers[i] = h
		go p.serve(i+1, h)
	}
	return p
}

// run executes every active shard's window. A nil pool, or a window with
// at most one active shard, runs inline on the coordinator. Shards share
// no state during a window, so which worker runs a shard cannot affect
// results.
func (p *pool) run(end sim.Time, active []*Shard) {
	if p == nil || len(active) <= 1 {
		for _, s := range active {
			s.runWindow(end)
		}
		return
	}
	p.epoch++
	p.end = end
	for i := range p.queues {
		p.queues[i].shards = p.queues[i].shards[:0]
	}
	for _, s := range active {
		q := &p.queues[s.ID%p.n]
		q.shards = append(q.shards, s)
	}
	p.left.Store(int32(len(active)))
	for i := range p.queues {
		q := &p.queues[i]
		if len(q.shards) > maxQueue {
			panic("par: too many shards for one worker")
		}
		q.word.Store(uint64(p.epoch)<<32 | uint64(len(q.shards))<<16)
	}
	for _, h := range p.helpers {
		h.posted.Store(uint64(p.epoch))
		h.mail.signal()
	}
	p.work(0, p.epoch)
	p.barrier.wait(func() bool { return p.left.Load() == 0 })
}

// work is worker w's part of window epoch: its own queue, then the
// others' in turn.
func (p *pool) work(w int, epoch uint32) {
	for i := 0; i < p.n; i++ {
		q := &p.queues[(w+i)%p.n]
		for s, ok := q.claim(epoch); ok; s, ok = q.claim(epoch) {
			s.runWindow(p.end)
			if p.left.Add(-1) == 0 {
				p.barrier.signal()
			}
		}
	}
}

// close stops the helpers and waits for them to exit. Nil-safe.
func (p *pool) close() {
	if p == nil {
		return
	}
	p.stop.Store(true)
	for _, h := range p.helpers {
		h.posted.Add(1 << 32)
		h.mail.signal()
	}
	p.done.Wait()
}

// serve is helper w's loop: wait for a window, work it.
func (p *pool) serve(w int, h *helper) {
	defer p.done.Done()
	var seen uint64
	for {
		h.mail.wait(func() bool { return h.posted.Load() != seen })
		seen = h.posted.Load()
		if p.stop.Load() {
			return
		}
		p.work(w, uint32(seen))
	}
}
