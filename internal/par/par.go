// Package par is a conservative parallel discrete-event runtime: it runs
// sim.Engine shards on a persistent pool of worker goroutines and
// synchronizes the shards with lookahead derived from the model's
// physical delays (the wire latency of the point-to-point link, the IPI
// cost of cross-core wakeups, the per-queue independence of RSS
// steering).
//
// # Model
//
// A Group owns a set of Shards, each wrapping an independent sim.Engine
// with its own clock, event queue and RNG. Shards interact only through
// Links — unidirectional channels with a declared minimum latency (the
// link's lookahead). Because every cross-shard message arrives at least
// lookahead after it was sent, the classic conservative-window argument
// applies: if the earliest pending event anywhere in the group is at time
// T, then no shard can receive a message before T+lookahead, so every
// shard may safely burn its local events up to (but not including)
// T+lookahead with no synchronization at all. Group.Run repeats that
// window computation, runs the shards that have work in the window
// concurrently, and exchanges buffered frames at the barrier.
//
// # Determinism
//
// A parallel run is bit-identical to the sequential run of the same shard
// decomposition, for any worker count:
//
//   - the window schedule is a pure function of event timestamps, which do
//     not depend on execution interleaving;
//   - within a window each shard executes single-threaded, exactly as the
//     sequential engine would;
//   - messages are exchanged only at barriers, sorted by the stable key
//     (delivery time, source shard ID, per-source sequence number) before
//     injection, so the destination engine's FIFO tie-breaking sees the
//     same arrival order every run.
//
// The determinism tests in this package and in internal/experiments
// assert exactly that: workers=1 (the sequential baseline) and workers=N
// produce identical delivered-packet sequences and histogram contents.
package par

import (
	"fmt"

	"prism/internal/sim"
)

// Shard is one unit of parallelism: an engine plus the cross-shard
// plumbing the Group scheduler needs. Model code on a shard must touch
// only state owned by that shard; the only sanctioned way to affect
// another shard is Link.Send.
type Shard struct {
	ID   int
	Name string
	Eng  *sim.Engine

	// inbox holds cross-shard messages awaiting injection, sorted by
	// (at, src, seq). The Group appends to it at barriers; the worker
	// running the shard drains it at the start of the shard's window.
	inbox []message
	// outSeq numbers this shard's sends across all its outbound links,
	// giving equal-timestamp messages from one shard a total order.
	outSeq uint64
	// err is the shard's result from the last window it ran in.
	err error

	// out lists the links this shard sends on, for the barrier collect.
	out []*Link
	// engNext/engBusy are the engine's earliest pending event, recorded
	// by the worker that ran the shard's last window.
	engNext sim.Time
	engBusy bool
	// dirty marks an inbox that grew at the current collect.
	dirty bool
}

// String identifies the shard in logs and errors.
func (s *Shard) String() string {
	return fmt.Sprintf("shard %d (%s)", s.ID, s.Name)
}

// InboxLen reports how many cross-shard messages are waiting to be
// injected into this shard — sends collected at a barrier whose delivery
// time falls beyond the horizon the group last ran to. Conservation
// checkers count these as in-flight on the medium.
func (s *Shard) InboxLen() int { return len(s.inbox) }
