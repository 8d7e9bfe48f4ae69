package par

import (
	"fmt"
	"slices"

	"prism/internal/sim"
)

// Group owns a set of shards and the links between them, and schedules
// their synchronized execution. Build the topology single-threaded (Add,
// Connect, model construction), then call Run.
type Group struct {
	shards []*Shard
	// lookahead is the minimum over all links — the global safe-window
	// width. Zero while the group has no links.
	lookahead sim.Time

	// Windows counts synchronization rounds, for tests and tuning.
	Windows uint64
	// ShardRuns counts shard-windows actually executed: each window adds
	// the number of shards that had an event or message before its end.
	// ShardRuns/Windows is the mean window width the pool could spread.
	ShardRuns uint64

	// OnBarrier, when set, runs on the coordinator goroutine at the end of
	// every synchronization window, after the window's events have executed
	// and cross-shard sends have been collected. Every worker has finished
	// the window and signalled the pool barrier, so the callback may read
	// any shard-local state race-free, and it may mutate quiescent state —
	// counters, routing tables, admission parameters, registering new
	// handlers — because no shard observes the mutation until the next
	// window starts (the coordinator's hand-over of the next window is the
	// happens-before edge). It must NOT schedule engine events or send on
	// links: the window schedule (and the Windows counter committed in
	// golden fixtures) must stay a pure function of the event timeline,
	// identical whether or not a hook is installed — and Run takes each
	// shard's next event from what its worker recorded after the shard's
	// last window, so an event scheduled here would be missed.
	// Barrier-driven control planes (cluster recovery) therefore act only
	// on state; anything needing an exact-time event schedules it from
	// event context on the owning shard instead. windowEnd is the window's
	// exclusive bound: every event strictly before it has executed.
	OnBarrier func(windowEnd sim.Time)

	// active is the current window's runnable shards in ID order; dirty
	// the inboxes that received messages at the last collect. Both are
	// reused across windows.
	active []*Shard
	dirty  []*Shard
}

// NewGroup returns an empty group.
func NewGroup() *Group { return &Group{} }

// Add wraps eng as the next shard. Engines must not be shared between
// shards.
func (g *Group) Add(name string, eng *sim.Engine) *Shard {
	s := &Shard{ID: len(g.shards), Name: name, Eng: eng}
	g.shards = append(g.shards, s)
	return s
}

// Shards returns the shards in ID order.
func (g *Group) Shards() []*Shard { return g.shards }

// Connect creates a link from src to dst whose frames take at least
// lookahead to arrive; deliver runs on the destination shard, in event
// context at the frame's delivery time. Conservative synchronization is
// impossible with zero lookahead, so it panics.
func (g *Group) Connect(src, dst *Shard, lookahead sim.Time, deliver func(at sim.Time, frame []byte)) *Link {
	if lookahead <= 0 {
		panic("par: conservative synchronization requires positive link lookahead")
	}
	if src == dst {
		panic("par: link endpoints must be distinct shards")
	}
	l := &Link{Src: src, Dst: dst, Lookahead: lookahead, deliver: deliver}
	src.out = append(src.out, l)
	if g.lookahead == 0 || lookahead < g.lookahead {
		g.lookahead = lookahead
	}
	return l
}

// Run executes all shards up to and including horizon (the same inclusive
// semantics as sim.Engine.Run). It keeps min(workers, shards, GOMAXPROCS)
// workers for the whole call — the calling goroutine plus persistent
// helpers — and each window runs only the shards with work before its
// end. workers <= 1 runs the identical window schedule sequentially — the
// baseline every determinism test compares against. On return every
// shard's clock is at horizon, unless a shard halted, which surfaces as
// ErrHalted wrapped with the shard's identity (the lowest-ID halted shard,
// for determinism).
func (g *Group) Run(horizon sim.Time, workers int) error {
	p := newPool(workers, len(g.shards))
	defer p.close()
	// Flush construction-time sends (and any the previous Run's tail left
	// buffered) so they participate in the first window computation, and
	// take every engine's next event: model code may have scheduled
	// events between Runs.
	g.collect(g.shards)
	for _, s := range g.shards {
		s.engNext, s.engBusy = s.Eng.NextAt()
	}
	for {
		next, ok := g.peek()
		if !ok || next > horizon {
			break
		}
		// The safe horizon: nothing anywhere can affect another shard
		// before next+lookahead. Events exactly at the group horizon must
		// fire (inclusive semantics), hence the +1 bound with RunUntil's
		// strictly-before contract.
		end := horizon + 1
		if g.lookahead > 0 {
			if w := next + g.lookahead; w < end {
				end = w
			}
		}
		active := g.activate(end)
		g.Windows++
		g.ShardRuns += uint64(len(active))
		p.run(end, active)
		for _, s := range active {
			if s.err != nil {
				return fmt.Errorf("par: %s: %w", s, s.err)
			}
		}
		g.collect(active)
		if g.OnBarrier != nil {
			g.OnBarrier(end)
		}
	}
	// Finish with every clock at the horizon, mirroring Engine.Run.
	for _, s := range g.shards {
		if err := s.Eng.Run(horizon); err != nil {
			return fmt.Errorf("par: %s: %w", s, err)
		}
	}
	return nil
}

// peek returns the earliest pending work item across the whole group.
func (g *Group) peek() (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, s := range g.shards {
		if at, ok := s.nextWork(); ok && (!found || at < best) {
			best, found = at, true
		}
	}
	return best, found
}

// nextWork is the shard's earliest pending work item: engine event or
// undelivered cross-shard message. The engine's part is what the shard's
// worker recorded after its last window, so the coordinator never reads
// an engine another worker runs.
func (s *Shard) nextWork() (sim.Time, bool) {
	at, ok := s.engNext, s.engBusy
	if len(s.inbox) > 0 && (!ok || s.inbox[0].at < at) {
		at, ok = s.inbox[0].at, true
	}
	return at, ok
}

// activate returns, in ID order, the shards with any work before end. A
// shard left out would execute nothing and keep its clock, so skipping
// it is exact.
func (g *Group) activate(end sim.Time) []*Shard {
	g.active = g.active[:0]
	for _, s := range g.shards {
		if at, ok := s.nextWork(); ok && at < end {
			g.active = append(g.active, s)
		}
	}
	return g.active
}

// runWindow is one shard's part of a window, run by whichever worker
// claims the shard: inject the messages due before end, execute every
// event before end, and record the engine's next event for the
// coordinator's scan. Between a Run's first and last window the engine
// is touched only here.
func (s *Shard) runWindow(end sim.Time) {
	s.inject(end)
	s.err = s.Eng.RunUntil(end)
	s.engNext, s.engBusy = s.Eng.NextAt()
}

// inject moves every inbox message due before end into the shard's
// engine. The inbox is sorted by (at, src, seq), so the engine's FIFO
// tie-breaking observes a deterministic arrival order; that same order
// means the messages arrive at nondecreasing timestamps, so the whole
// window is scheduled through one batch cursor — a single wheel insert
// run instead of one full queue push per message. The frame waits on its
// link's FIFO, and the event carries only the link: per link, events are
// injected in (at, seq) order and the engine dispatches them in that
// order, so each dispatch pops exactly its own frame.
func (s *Shard) inject(end sim.Time) {
	i := 0
	b := s.Eng.BeginBatch()
	for i < len(s.inbox) && s.inbox[i].at < end {
		m := &s.inbox[i]
		m.link.injected.push(m.frame)
		b.CallAt(m.at, deliverMessage, m.link, nil)
		i++
	}
	if i > 0 {
		// Compact in place, then clear the vacated tail: the stale
		// entries beyond the new length still hold frames, and leaving
		// them pins delivered frames across windows.
		n := copy(s.inbox, s.inbox[i:])
		clear(s.inbox[n:len(s.inbox)])
		s.inbox = s.inbox[:n]
	}
}

// deliverMessage is the top-level trampoline injected messages dispatch
// through: a1 is the *Link, whose FIFO holds the frame. Scheduling it via
// CallAt reuses a pooled event record — no capturing closure and no boxed
// payload, so nothing is allocated per message.
func deliverMessage(at sim.Time, a1, _ any) {
	l := a1.(*Link)
	l.deliver(at, l.injected.pop())
}

// collect drains the window buffers of srcs' outbound links into the
// destination inboxes and restores the (at, src, seq) order of every
// inbox that grew. Only a shard that ran can have sent, so the barrier
// after a window passes just that window's active shards. Runs only at
// barriers.
func (g *Group) collect(srcs []*Shard) {
	for _, s := range srcs {
		for _, l := range s.out {
			if len(l.buf) == 0 {
				continue
			}
			d := l.Dst
			if !d.dirty {
				d.dirty = true
				g.dirty = append(g.dirty, d)
			}
			d.inbox = append(d.inbox, l.buf...)
			clear(l.buf)
			l.buf = l.buf[:0]
		}
	}
	for _, d := range g.dirty {
		if len(d.inbox) > 1 {
			// (at, src, seq) is a total order — seq is unique per source —
			// so the unstable sort is deterministic. SortFunc with a
			// non-capturing comparator keeps the barrier allocation-free,
			// where sort.Slice boxed the slice and closure every window.
			slices.SortFunc(d.inbox, compareMessages)
		}
		d.dirty = false
	}
	clear(g.dirty)
	g.dirty = g.dirty[:0]
}

// compareMessages orders inbox messages by (at, src, seq).
func compareMessages(a, b message) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.src != b.src:
		return a.src - b.src
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	default:
		return 0
	}
}
