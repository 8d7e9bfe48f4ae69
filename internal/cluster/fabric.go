package cluster

import (
	"sync/atomic"

	"prism/internal/obs"
	"prism/internal/par"
	"prism/internal/pkt"
	"prism/internal/sim"
)

// The fabric is a two-tier Clos: every host uplinks to its rack's ToR,
// ToRs interconnect through one spine. Switches are output-queued with
// strict-priority scheduling at each egress port — the same discipline
// the paper applies inside the host, extended to the network — and each
// switch runs on its own par shard, so inter-switch and switch↔host hops
// ride cross-shard links whose lookahead is the cable's propagation
// delay.

// FabricConfig sizes the switching fabric.
type FabricConfig struct {
	// Racks is the number of ToR switches; hosts are assigned to racks
	// round-robin by ID block. 0 derives ceil(hosts/8).
	Racks int
	// TorLatency / SpineLatency are per-switch forwarding latencies
	// (port-to-port cut-through minimum).
	TorLatency   sim.Time
	SpineLatency sim.Time
	// HostLink is the host↔ToR cable propagation delay — the cross-shard
	// lookahead of those links. It must not exceed the host cost model's
	// WireLatency (generators compute arrival with WireLatency, and a
	// link cannot deliver faster than its lookahead). 0 derives it from
	// the host's Costs.
	HostLink sim.Time
	// SpineLink is the ToR↔spine cable propagation delay.
	SpineLink sim.Time
	// LinkGbps is every link's line rate, for serialization delay.
	LinkGbps float64
	// QueueCap bounds each egress port's queue (frames, both classes
	// combined). Arrivals beyond it tail-drop, except that a
	// high-priority arrival evicts the youngest queued best-effort frame
	// instead — the fabric analogue of the host shed policy.
	QueueCap int
}

func (c FabricConfig) withDefaults(hosts int, hostWire sim.Time) FabricConfig {
	if c.Racks <= 0 {
		c.Racks = (hosts + 7) / 8
	}
	if c.Racks > hosts {
		c.Racks = hosts
	}
	if c.TorLatency <= 0 {
		c.TorLatency = 600 * sim.Nanosecond
	}
	if c.SpineLatency <= 0 {
		c.SpineLatency = sim.Microsecond
	}
	if c.HostLink <= 0 || c.HostLink > hostWire {
		c.HostLink = hostWire
	}
	if c.SpineLink <= 0 {
		c.SpineLink = 4 * sim.Microsecond
	}
	if c.LinkGbps <= 0 {
		c.LinkGbps = 100
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	return c
}

// serialization returns the time to clock a frame onto a link.
func (c FabricConfig) serialization(bytes int) sim.Time {
	return sim.Time(float64(bytes*8) / c.LinkGbps)
}

// queued is one frame waiting at an egress port.
type queued struct {
	frame   []byte
	hi      bool
	arrived sim.Time
}

// frameRing is an egress class queue: a FIFO over a power-of-two ring
// that reuses its backing array, so steady forwarding never allocates.
// Vacated slots are cleared, so a dequeued, shed or flushed frame is not
// kept reachable by the ring.
type frameRing struct {
	buf     []queued
	head, n int
}

func (r *frameRing) len() int { return r.n }

func (r *frameRing) push(q queued) {
	if r.n == len(r.buf) {
		grown := make([]queued, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = q
	r.n++
}

// pop removes the oldest frame.
func (r *frameRing) pop() queued {
	q := r.buf[r.head]
	r.buf[r.head] = queued{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return q
}

// dropNewest removes the youngest frame.
func (r *frameRing) dropNewest() {
	r.n--
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = queued{}
}

// flush empties the ring.
func (r *frameRing) flush() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// Port is one switch egress: a two-class queue feeding a cross-shard
// link, serialized at line rate, strict priority across classes.
type Port struct {
	Name string
	link *par.Link
	prop sim.Time

	hi, lo frameRing
	// tx is the frame being serialized while busy.
	tx   queued
	busy bool
	cap  int
	// down marks the link severed (ToR-uplink failure): queued frames
	// are flushed and arrivals drop until it restores. Mutated only from
	// the owning switch's shard (exact-time events) or at barriers (the
	// recovery controller mirroring the remote end).
	down bool

	// Forwarded counts frames put on the wire; Dropped counts every
	// discard at this port (tail drops plus shed victims plus link-down
	// losses); ShedLo is the subset evicted to admit a high-priority
	// frame; DownDropped the subset lost to a severed link.
	Forwarded   uint64
	Dropped     uint64
	ShedLo      uint64
	DownDropped uint64

	// busyNs accumulates transmit occupancy since winStart, for the
	// utilization report.
	busyNs   sim.Time
	winStart sim.Time

	// obs is the port's handle in its switch's pipeline.
	obs *obs.Dev
}

func (p *Port) depth() int { return p.hi.len() + p.lo.len() }

// Queued reports frames currently waiting at the port (excluding the one
// being serialized).
func (p *Port) Queued() int { return p.depth() }

// Busy reports whether a frame is on the wire right now.
func (p *Port) Busy() bool { return p.busy }

// Utilization is the port's transmit occupancy since the last window
// reset.
func (p *Port) Utilization(now sim.Time) float64 {
	if now <= p.winStart {
		return 0
	}
	return float64(p.busyNs) / float64(now-p.winStart)
}

// Switch is one ToR or spine: classify against the control-plane
// snapshot, pick the egress port, queue, serialize, forward. It lives on
// its own shard; Receive runs in event context on that shard.
type Switch struct {
	Name  string
	Shard *par.Shard
	Pipe  *obs.Pipeline

	cfg     FabricConfig
	latency sim.Time
	// snap points at the cluster's shared atomic routing snapshot;
	// recovery swaps the snapshot at barrier epochs and every switch
	// observes the new version from the next window on.
	snap *atomic.Pointer[Snapshot]
	// portFor maps a route to the egress port (downlink for local
	// destinations, uplink toward the next tier).
	portFor func(Route) *Port
	Ports   []*Port

	// RxFrames counts arrivals; Unroutable counts frames whose inner
	// destination port has no snapshot entry.
	RxFrames   uint64
	Unroutable uint64
	seq        uint64

	// obs is the switch's own handle in Pipe (unroutable drops).
	obs *obs.Dev
}

func newSwitch(g *par.Group, name string, seed uint64, latency sim.Time, cfg FabricConfig, snap *atomic.Pointer[Snapshot]) *Switch {
	sw := &Switch{
		Name:    name,
		Pipe:    obs.NewPipeline(name),
		cfg:     cfg,
		latency: latency,
		snap:    snap,
	}
	sw.obs = sw.Pipe.Dev(name)
	sw.Shard = g.Add(name, sim.NewEngine(seed))
	return sw
}

// addPort attaches an egress link to the switch.
func (s *Switch) addPort(name string, link *par.Link, prop sim.Time) *Port {
	p := &Port{Name: name, link: link, prop: prop, cap: s.cfg.QueueCap, obs: s.Pipe.Dev(name)}
	s.Ports = append(s.Ports, p)
	return p
}

// Receive handles one frame arriving from a host uplink at time at (event
// context on the switch's shard). This is the fabric edge: the full
// pkt.Parse here decides the frame's validity for every later hop, since a
// fabric frame is immutable from its encoding to its delivery (a fault
// plane corrupts a copy, taps copy, the NIC DMA copies).
func (s *Switch) Receive(at sim.Time, frame []byte) {
	h, err := pkt.Parse(frame)
	if err != nil {
		s.RxFrames++
		s.unroutable(at)
		return
	}
	s.route(at, frame, h.Flow.DstPort)
}

// ReceiveCore handles one frame arriving from inside the fabric — at the
// spine, or at a ToR from the spine. The edge ToR validated it, so the
// route key is read at its fixed offset.
func (s *Switch) ReceiveCore(at sim.Time, frame []byte) {
	s.route(at, frame, pkt.ValidatedDstPort(frame))
}

// route classifies a frame against the live snapshot by its inner
// destination port (the globally unique flow identity — container IPs
// repeat across hosts, ports never do) and queues it at the egress port.
func (s *Switch) route(at sim.Time, frame []byte, dstPort uint16) {
	s.RxFrames++
	rt, ok := s.snap.Load().Lookup(dstPort)
	if !ok {
		s.unroutable(at)
		return
	}
	s.enqueue(at, s.portFor(rt), queued{frame: frame, hi: rt.Hi, arrived: at})
}

func (s *Switch) unroutable(at sim.Time) {
	s.Unroutable++
	s.obs.FabricDrop(at, "unroutable", 0)
}

func (s *Switch) enqueue(now sim.Time, p *Port, q queued) {
	prio := 0
	if q.hi {
		prio = 1
	}
	if p.down {
		p.Dropped++
		p.DownDropped++
		p.obs.FabricDrop(now, "link-down", prio)
		return
	}
	if p.depth() >= p.cap {
		if q.hi && p.lo.len() > 0 {
			// Evict the youngest best-effort frame: the oldest is
			// closest to transmission and dropping it wastes the most
			// queueing work.
			p.lo.dropNewest()
			p.ShedLo++
			p.Dropped++
			p.obs.FabricDrop(now, "shed", 0)
		} else {
			p.Dropped++
			p.obs.FabricDrop(now, "queue-full", prio)
			return
		}
	}
	if q.hi {
		p.hi.push(q)
	} else {
		p.lo.push(q)
	}
	if !p.busy {
		s.startTx(now, p)
	}
}

// startTx dequeues strict-priority and occupies the port for the switch
// latency plus the frame's serialization time. The frame waits on the
// port and the completion event carries only (switch, port), so a
// transmit allocates nothing.
func (s *Switch) startTx(now sim.Time, p *Port) {
	switch {
	case p.hi.len() > 0:
		p.tx = p.hi.pop()
	case p.lo.len() > 0:
		p.tx = p.lo.pop()
	default:
		return
	}
	p.busy = true
	done := now + s.latency + s.cfg.serialization(len(p.tx.frame))
	p.busyNs += done - now
	s.Shard.Eng.CallAt(done, finishTxEvent, s, p)
}

// finishTxEvent is startTx's completion trampoline: a1 is the *Switch,
// a2 the *Port.
func finishTxEvent(done sim.Time, a1, a2 any) { a1.(*Switch).finishTx(done, a2.(*Port)) }

func (s *Switch) finishTx(done sim.Time, p *Port) {
	q := p.tx
	p.tx = queued{}
	prio := 0
	if q.hi {
		prio = 1
	}
	p.obs.Fabric(s.seq, prio, q.arrived, done)
	s.seq++
	p.link.Send(done, p.prop, q.frame)
	p.Forwarded++
	p.busy = false
	if p.depth() > 0 {
		s.startTx(done, p)
	}
}

// setPortDown flips a port's link state. Going down flushes the queue —
// every waiting frame is a link-down loss — while a frame already in
// serialization finishes (it is on the wire). The restore never needs to
// resume transmission: arrivals drop while the link is down, so the
// queue is empty by construction — which is what lets the recovery
// controller call this at barriers (mutating quiescent state) without
// ever scheduling an event. Call from the switch's own shard in event
// context, or from a barrier while all shards are quiescent.
func (s *Switch) setPortDown(now sim.Time, p *Port, down bool) {
	if p == nil || p.down == down {
		return
	}
	p.down = down
	if !down {
		return
	}
	flushed := p.depth()
	for i := 0; i < p.hi.len(); i++ {
		p.obs.FabricDrop(now, "link-down", 1)
	}
	for i := 0; i < p.lo.len(); i++ {
		p.obs.FabricDrop(now, "link-down", 0)
	}
	p.hi.flush()
	p.lo.flush()
	p.Dropped += uint64(flushed)
	p.DownDropped += uint64(flushed)
}

// resetWindow restarts the utilization accounting at time at (scheduled
// on the switch's own engine at the end of warmup).
func (s *Switch) resetWindow(at sim.Time) {
	for _, p := range s.Ports {
		p.busyNs = 0
		p.winStart = at
	}
}

// inFlight counts frames inside this switch: queued at a port or
// currently being serialized.
func (s *Switch) inFlight() int {
	n := 0
	for _, p := range s.Ports {
		n += p.depth()
		if p.busy {
			n++
		}
	}
	return n
}

// forwarded sums the frames the switch put on its wires.
func (s *Switch) forwarded() uint64 {
	var n uint64
	for _, p := range s.Ports {
		n += p.Forwarded
	}
	return n
}

// dropped sums the switch's discards (port drops plus unroutable).
func (s *Switch) dropped() uint64 {
	n := s.Unroutable
	for _, p := range s.Ports {
		n += p.Dropped
	}
	return n
}
