package obs

import (
	"prism/internal/pkt"
	"prism/internal/sim"
)

// Dev is a pre-resolved handle onto one device's series in one pipeline,
// and the home of every per-packet entry point (DMA, IRQ, Span, Deliver,
// Drop, Absorbed, Fabric, FabricDrop, FaultInjected, FaultDrop). An
// instrumentation point resolves its handle once (Pipeline.Dev) and keeps
// it, so recording a packet walks a short per-stage list and indexes a
// per-priority slice instead of hashing a (name, labels) registry key —
// the cached-children pattern of Prometheus client vectors.
//
// Each child series is fetched from the registry on the handle's first
// use of it, never earlier, so a series appears in the registry exactly
// when it is first recorded into: exports are the same as if every event
// had gone through Registry.Counter / Registry.Histogram directly.
type Dev struct {
	p      *Pipeline
	name   string
	stages []stageSeries
}

// stageSeries caches one stage label's children, by priority.
type stageSeries struct {
	stage  string
	byPrio []*series
}

// series is the children of one (device, stage, priority), each nil until
// first used.
type series struct {
	dma, irqs, packets, delivered, dropped, gro            *Counter
	fabricFrames, fabricDropped, faultInjected, faultDrops *Counter
	service, wait, e2e, residency                          *HistogramMetric
}

// maxCachedPrio bounds the per-priority child slice. The simulator's
// classifiers produce levels 0..8; a priority outside [0, maxCachedPrio]
// still records correctly, resolving from the registry on every use.
const maxCachedPrio = 64

// Dev returns the handle for device name, creating it on first request;
// repeated requests return the same handle. A nil pipeline yields a nil
// handle, which instrumentation points treat as "not observed".
func (p *Pipeline) Dev(name string) *Dev {
	if p == nil {
		return nil
	}
	d := p.devs[name]
	if d == nil {
		d = &Dev{p: p, name: name}
		p.devs[name] = d
	}
	return d
}

// Name returns the device label the handle records under.
func (d *Dev) Name() string { return d.name }

// Pipeline returns the pipeline the handle records into.
func (d *Dev) Pipeline() *Pipeline { return d.p }

// at returns the children of (stage, prio).
func (d *Dev) at(stage string, prio int) *series {
	for i := range d.stages {
		if s := &d.stages[i]; s.stage == stage {
			if uint(prio) < uint(len(s.byPrio)) && s.byPrio[prio] != nil {
				return s.byPrio[prio]
			}
			break
		}
	}
	return d.add(stage, prio)
}

func (d *Dev) add(stage string, prio int) *series {
	if prio < 0 || prio > maxCachedPrio {
		return &series{}
	}
	i := 0
	for i < len(d.stages) && d.stages[i].stage != stage {
		i++
	}
	if i == len(d.stages) {
		d.stages = append(d.stages, stageSeries{stage: stage})
	}
	s := &d.stages[i]
	for len(s.byPrio) <= prio {
		s.byPrio = append(s.byPrio, nil)
	}
	s.byPrio[prio] = &series{}
	return s.byPrio[prio]
}

// counter returns the counter cached in slot, first resolving it from
// the registry as (name, {device, stage, prio, shard}).
func (d *Dev) counter(slot **Counter, name, stage string, prio int) *Counter {
	if *slot == nil {
		*slot = d.p.M.Counter(name, Labels{Device: d.name, Stage: stage, Priority: prio, Shard: d.p.Shard})
	}
	return *slot
}

// hist is counter's histogram counterpart.
func (d *Dev) hist(slot **HistogramMetric, name, stage string, prio int) *HistogramMetric {
	if *slot == nil {
		*slot = d.p.M.Histogram(name, Labels{Device: d.name, Stage: stage, Priority: prio, Shard: d.p.Shard})
	}
	return *slot
}

// DMA records a frame entering the RX descriptor ring. It opens the
// packet's wait cursor: the gap to the first stage span is the ring wait.
func (d *Dev) DMA(now sim.Time, skb *pkt.SKB) {
	p := d.p
	p.T.add(KindInstant, StageDMA, d.name, skb.ID, skb.Priority, now, now)
	d.counter(&d.at(StageDMA, 0).dma, "prism_dma_frames_total", StageDMA, 0).Add(1)
	p.advance(skb, now)
}

// IRQ records a hardware interrupt raised by the device.
func (d *Dev) IRQ(now sim.Time) {
	d.p.T.add(KindInstant, StageIRQ, d.name, NoPacket, 0, now, now)
	d.counter(&d.at(StageIRQ, 0).irqs, "prism_irqs_total", StageIRQ, 0).Add(1)
}

// Span records stage processing one packet over [start, end]. The wait
// histogram receives the gap since the packet's previous lifecycle event
// (its time queued before this stage), when its cursor is open; the
// service histogram receives the span length. The cursor then opens or
// advances to end.
func (d *Dev) Span(stage string, skb *pkt.SKB, start, end sim.Time) {
	p, prio := d.p, skb.Priority
	p.T.add(KindSpan, stage, d.name, skb.ID, prio, start, end)
	s := d.at(stage, prio)
	d.counter(&s.packets, "prism_stage_packets_total", stage, prio).Add(1)
	d.hist(&s.service, "prism_stage_service_ns", stage, prio).Observe(end - start)
	if last, open := skb.WaitCursor(); open {
		d.hist(&s.wait, "prism_stage_wait_ns", stage, prio).Observe(start - last)
	}
	p.advance(skb, end)
}

// Deliver records the payload reaching a socket buffer at time now, and
// closes the packet's wait cursor. The gap from the packet's NIC-ring
// entry (skb.Arrived) feeds the end-to-end latency histogram.
func (d *Dev) Deliver(now sim.Time, skb *pkt.SKB) {
	p, prio := d.p, skb.Priority
	p.T.add(KindInstant, StageSocket, d.name, skb.ID, prio, now, now)
	s := d.at(StageSocket, prio)
	d.counter(&s.delivered, "prism_delivered_total", StageSocket, prio).Add(1)
	if last, open := skb.WaitCursor(); open {
		d.hist(&s.wait, "prism_stage_wait_ns", StageSocket, prio).Observe(now - last)
	}
	p.root.hist(&p.root.at("", prio).e2e, "prism_e2e_latency_ns", "", prio).Observe(now - skb.Arrived)
	p.close(skb)
}

// Drop records a packet discarded at a stage (handler verdict, queue
// overrun, rcvbuf overflow, shed) and closes its wait cursor.
func (d *Dev) Drop(now sim.Time, stage string, skb *pkt.SKB) {
	d.p.T.add(KindInstant, StageDrop, d.name, skb.ID, skb.Priority, now, now)
	d.counter(&d.at(stage, skb.Priority).dropped, "prism_dropped_total", stage, skb.Priority).Add(1)
	d.p.close(skb)
}

// Absorbed records a frame merged into an earlier SKB by GRO; the frame's
// own lifecycle ends here (the super-SKB carries on).
func (d *Dev) Absorbed(now sim.Time, skb *pkt.SKB) {
	d.p.T.add(KindInstant, StageGRO, d.name, skb.ID, skb.Priority, now, now)
	d.counter(&d.at(StageGRO, 0).gro, "prism_gro_absorbed_total", StageGRO, 0).Add(1)
	d.p.close(skb)
}

// advance opens skb's wait cursor, or moves an open one, to t.
func (p *Pipeline) advance(skb *pkt.SKB, t sim.Time) {
	if _, open := skb.WaitCursor(); !open {
		p.inFlight++
	}
	skb.SetWaitCursor(t)
}

// close ends skb's observed lifecycle.
func (p *Pipeline) close(skb *pkt.SKB) {
	if skb.CloseWaitCursor() {
		p.inFlight--
	}
}

// Fabric records the device — a switch egress port — forwarding a frame
// over [start, end]: egress queue wait plus serialization onto the output
// link. Unlike Span it does not touch a per-packet wait cursor: fabric
// packet IDs are switch-local sequence numbers, not host SKB identities,
// and a fabric frame never reaches Deliver on this pipeline.
func (d *Dev) Fabric(pkt uint64, prio int, start, end sim.Time) {
	d.p.T.add(KindSpan, StageFabric, d.name, pkt, prio, start, end)
	s := d.at(StageFabric, prio)
	d.counter(&s.fabricFrames, "prism_fabric_frames_total", StageFabric, prio).Add(1)
	d.hist(&s.residency, "prism_fabric_residency_ns", StageFabric, prio).Observe(end - start)
}

// FabricDrop records a frame the fabric discarded — egress queue overflow,
// a low-priority victim evicted for a high-priority frame, or no route in
// the control-plane snapshot. reason becomes the stage label so drop
// causes stay separable in merged exports.
func (d *Dev) FabricDrop(now sim.Time, reason string, prio int) {
	d.p.T.add(KindInstant, StageDrop, d.name, NoPacket, prio, now, now)
	d.counter(&d.at(reason, prio).fabricDropped, "prism_fabric_dropped_total", reason, prio).Add(1)
}

// FaultInjected counts one injected fault of the given class (the stage
// label). It is recorded on the pipeline-wide handle: fault classes are
// not tied to one device.
func (d *Dev) FaultInjected(class string) {
	d.counter(&d.at(class, 0).faultInjected, "prism_fault_injected_total", class, 0).Add(1)
}

// FaultDrop counts one fault-induced frame drop on the device, with its
// reason as the stage label.
func (d *Dev) FaultDrop(reason string) {
	d.counter(&d.at(reason, 0).faultDrops, "prism_fault_drops_total", reason, 0).Add(1)
}

// Root returns the pipeline's device-less handle, the one FaultInjected
// is recorded on.
func (p *Pipeline) Root() *Dev {
	if p == nil {
		return nil
	}
	return p.root
}
