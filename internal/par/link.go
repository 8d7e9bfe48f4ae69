package par

import (
	"fmt"

	"prism/internal/sim"
)

// message is one cross-shard delivery. The (at, src, seq) triple is the
// stable ordering key that makes parallel delivery deterministic.
type message struct {
	at    sim.Time // delivery time on the destination shard
	src   int      // sending shard ID
	seq   uint64   // per-source send counter
	link  *Link
	frame []byte
}

// Link is a unidirectional cross-shard wire with a declared minimum
// latency. The lookahead is a physical property of the modelled medium —
// a cable's propagation delay, an IPI's cross-core cost — and is what the
// conservative scheduler turns into parallelism: the smaller the fastest
// link, the shorter the safe window.
type Link struct {
	Src, Dst *Shard
	// Lookahead is the minimum delay of any frame on this link.
	Lookahead sim.Time

	deliver func(at sim.Time, frame []byte)
	// buf accumulates sends within a window. It is written only by the
	// source shard's worker and drained only at barriers, so it needs no
	// locking.
	buf []message
	// injected holds the frames of deliveries scheduled on the
	// destination engine and not yet dispatched, in dispatch order. Only
	// the worker running the destination shard pushes and pops it.
	injected frameFIFO
}

// Send delivers frame to the destination shard at now+delay, where delay
// must be at least the link's lookahead — sending faster than the medium
// allows would violate the window safety argument, so it panics. Send must
// be called from event context on the source shard (now is the source
// engine's current time).
func (l *Link) Send(now, delay sim.Time, frame []byte) {
	if delay < l.Lookahead {
		panic(fmt.Sprintf("par: send on %s→%s with delay %v below lookahead %v",
			l.Src.Name, l.Dst.Name, delay, l.Lookahead))
	}
	l.buf = append(l.buf, message{
		at:    now + delay,
		src:   l.Src.ID,
		seq:   l.Src.outSeq,
		link:  l,
		frame: frame,
	})
	l.Src.outSeq++
}

// Buffered reports how many sends are sitting in the link's window buffer
// awaiting the next barrier. Nonzero after a Group.Run only for messages
// emitted by the post-window tail run (delivery beyond the horizon);
// conservation checkers count these as in-flight on the medium.
func (l *Link) Buffered() int { return len(l.buf) }

// frameFIFO is a head-indexed queue of frames that reuses its backing
// array. Every frame injected in a window is dispatched within it, so
// the queue drains each window and the indices rewind to zero instead of
// creeping along the array.
type frameFIFO struct {
	frames [][]byte
	head   int
}

func (q *frameFIFO) push(f []byte) { q.frames = append(q.frames, f) }

func (q *frameFIFO) pop() []byte {
	f := q.frames[q.head]
	q.frames[q.head] = nil
	q.head++
	if q.head == len(q.frames) {
		q.frames, q.head = q.frames[:0], 0
	}
	return f
}
