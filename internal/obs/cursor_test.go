package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"prism/internal/pkt"
	"prism/internal/sim"
)

// refPipeline is the reference the SKB wait cursor and the in-place tracer
// are checked against: the per-packet entry points as a map keyed by packet
// ID, recording through Registry lookups, and a tracer that copies each
// Event into its ring.
type refPipeline struct {
	shard  string
	m      *Registry
	t      refTracer
	lastAt map[uint64]sim.Time
}

func newRefPipeline(shard string, capacity, sampleEvery int) *refPipeline {
	r := &refPipeline{shard: shard, m: NewRegistry(), lastAt: map[uint64]sim.Time{}}
	r.t.capacity = capacity
	if sampleEvery > 1 {
		r.t.sampleEvery = uint64(sampleEvery)
	}
	return r
}

func (r *refPipeline) labels(dev, stage string, prio int) Labels {
	return Labels{Device: dev, Stage: stage, Priority: prio, Shard: r.shard}
}

func (r *refPipeline) DMA(dev string, now sim.Time, id uint64, prio int) {
	r.t.add(Event{Kind: KindInstant, Stage: StageDMA, Device: dev, Pkt: id, Priority: prio, Start: now, End: now})
	r.m.Counter("prism_dma_frames_total", r.labels(dev, StageDMA, 0)).Add(1)
	r.lastAt[id] = now
}

func (r *refPipeline) IRQ(dev string, now sim.Time) {
	r.t.add(Event{Kind: KindInstant, Stage: StageIRQ, Device: dev, Pkt: NoPacket, Start: now, End: now})
	r.m.Counter("prism_irqs_total", r.labels(dev, StageIRQ, 0)).Add(1)
}

func (r *refPipeline) Span(dev, stage string, id uint64, prio int, start, end sim.Time) {
	r.t.add(Event{Kind: KindSpan, Stage: stage, Device: dev, Pkt: id, Priority: prio, Start: start, End: end})
	l := r.labels(dev, stage, prio)
	r.m.Counter("prism_stage_packets_total", l).Add(1)
	r.m.Histogram("prism_stage_service_ns", l).Observe(end - start)
	if last, ok := r.lastAt[id]; ok {
		r.m.Histogram("prism_stage_wait_ns", l).Observe(start - last)
	}
	r.lastAt[id] = end
}

func (r *refPipeline) Deliver(dev string, now sim.Time, id uint64, prio int, arrived sim.Time) {
	r.t.add(Event{Kind: KindInstant, Stage: StageSocket, Device: dev, Pkt: id, Priority: prio, Start: now, End: now})
	l := r.labels(dev, StageSocket, prio)
	r.m.Counter("prism_delivered_total", l).Add(1)
	if last, ok := r.lastAt[id]; ok {
		r.m.Histogram("prism_stage_wait_ns", l).Observe(now - last)
	}
	r.m.Histogram("prism_e2e_latency_ns", r.labels("", "", prio)).Observe(now - arrived)
	delete(r.lastAt, id)
}

func (r *refPipeline) Drop(dev string, now sim.Time, stage string, id uint64, prio int) {
	r.t.add(Event{Kind: KindInstant, Stage: StageDrop, Device: dev, Pkt: id, Priority: prio, Start: now, End: now})
	r.m.Counter("prism_dropped_total", r.labels(dev, stage, prio)).Add(1)
	delete(r.lastAt, id)
}

func (r *refPipeline) Absorbed(dev string, now sim.Time, id uint64, prio int) {
	r.t.add(Event{Kind: KindInstant, Stage: StageGRO, Device: dev, Pkt: id, Priority: prio, Start: now, End: now})
	r.m.Counter("prism_gro_absorbed_total", r.labels(dev, StageGRO, 0)).Add(1)
	delete(r.lastAt, id)
}

func (r *refPipeline) Fabric(dev string, id uint64, prio int, start, end sim.Time) {
	r.t.add(Event{Kind: KindSpan, Stage: StageFabric, Device: dev, Pkt: id, Priority: prio, Start: start, End: end})
	l := r.labels(dev, StageFabric, prio)
	r.m.Counter("prism_fabric_frames_total", l).Add(1)
	r.m.Histogram("prism_fabric_residency_ns", l).Observe(end - start)
}

// refTracer is the by-value ring: build an Event, copy it in, wrap the
// head with a modulus.
type refTracer struct {
	capacity    int
	sampleEvery uint64
	events      []Event
	head        int
	seq         uint64
	Overwritten uint64
	SampledOut  uint64
}

func (t *refTracer) add(ev Event) {
	if t.sampleEvery > 1 && ev.Pkt != NoPacket && ev.Pkt%t.sampleEvery != 0 {
		t.SampledOut++
		return
	}
	ev.Seq = t.seq
	t.seq++
	if len(t.events) < t.capacity {
		t.events = append(t.events, ev)
		return
	}
	t.events[t.head] = ev
	t.head = (t.head + 1) % t.capacity
	t.Overwritten++
}

func (t *refTracer) eventsSince(cursor uint64) []Event {
	all := append(append([]Event{}, t.events[t.head:]...), t.events[:t.head]...)
	oldest := t.seq - uint64(len(all))
	if cursor < oldest {
		cursor = oldest
	}
	if cursor >= t.seq {
		return nil
	}
	return all[cursor-oldest:]
}

// TestSKBCursorMatchesMapReference drives the SKB-cursor handles and the
// map reference with the same randomized lifecycles — DMA, spans, deliver,
// drop, absorb, spans without a DMA, drops before one, and SKBs freed
// with the cursor still open — over SKBs drawn from and returned to one
// pool, so every SKB is recycled many times. The Prometheus text, the
// event streams (whole, and drained incrementally through a wrapping
// ring) and the in-flight count must be identical throughout.
func TestSKBCursorMatchesMapReference(t *testing.T) {
	devs := []string{"eth0", "br0", "veth0", "c0"}
	stages := []string{StageNIC, StageBridge, StageVeth, StageSocket}
	for _, tc := range []struct {
		seed             int64
		capacity, sample int
	}{{1, 97, 0}, {2, 97, 3}, {3, 1 << 12, 0}, {4, 13, 2}} {
		rng := rand.New(rand.NewSource(tc.seed))
		p := NewPipeline("s0")
		p.T = NewTracer(tc.capacity)
		p.T.SetSampling(tc.sample)
		ref := newRefPipeline("s0", tc.capacity, tc.sample)

		var skbs pkt.SKBPool
		var live []*pkt.SKB
		var nextID uint64
		var now sim.Time
		var cursor uint64
		var gotStream, wantStream []Event
		// retire removes live[i] and returns its SKB to the pool.
		retire := func(i int) {
			live[i].Free()
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for step := 0; step < 20000; step++ {
			now += sim.Time(rng.Intn(50))
			dev := devs[rng.Intn(len(devs))]
			h := p.Dev(dev)
			switch op := rng.Intn(100); {
			case op < 20 || len(live) == 0: // a new frame
				skb := skbs.Get()
				prio := rng.Intn(3)
				if rng.Intn(50) == 0 {
					prio = maxCachedPrio + 1 + rng.Intn(3)
				}
				skb.ID, skb.Priority, skb.Arrived = nextID, prio, now
				nextID++
				live = append(live, skb)
				switch rng.Intn(10) {
				case 0: // ring overrun before DMA
					h.Drop(now, StageDMA, skb)
					ref.Drop(dev, now, StageDMA, skb.ID, skb.Priority)
					retire(len(live) - 1)
				case 1: // reaches a stage unobserved at DMA
				default:
					h.DMA(now, skb)
					ref.DMA(dev, now, skb.ID, skb.Priority)
				}
			case op < 65:
				skb := live[rng.Intn(len(live))]
				stage := stages[rng.Intn(len(stages))]
				start := now + sim.Time(rng.Intn(100))
				end := start + sim.Time(rng.Intn(100))
				h.Span(stage, skb, start, end)
				ref.Span(dev, stage, skb.ID, skb.Priority, start, end)
			case op < 75:
				i := rng.Intn(len(live))
				skb := live[i]
				h.Deliver(now, skb)
				ref.Deliver(dev, now, skb.ID, skb.Priority, skb.Arrived)
				retire(i)
			case op < 82:
				i := rng.Intn(len(live))
				skb := live[i]
				stage := stages[rng.Intn(len(stages))]
				if rng.Intn(4) == 0 {
					stage = StageShed
				}
				h.Drop(now, stage, skb)
				ref.Drop(dev, now, stage, skb.ID, skb.Priority)
				retire(i)
			case op < 87:
				i := rng.Intn(len(live))
				skb := live[i]
				h.Absorbed(now, skb)
				ref.Absorbed(dev, now, skb.ID, skb.Priority)
				retire(i)
			case op < 89: // freed with the cursor open: the map keeps a stale entry
				retire(rng.Intn(len(live)))
			case op < 94:
				h.IRQ(now)
				ref.IRQ(dev, now)
			default:
				id, prio := uint64(rng.Intn(1000)), rng.Intn(3)
				end := now + sim.Time(rng.Intn(100))
				h.Fabric(id, prio, now, end)
				ref.Fabric(dev, id, prio, now, end)
			}
			if step%97 == 0 {
				gotStream = append(gotStream, p.T.EventsSince(cursor)...)
				wantStream = append(wantStream, ref.t.eventsSince(cursor)...)
				cursor = p.T.Total()
			}
			if p.InFlight() != len(ref.lastAt) {
				t.Fatalf("seed %d step %d: in-flight %d, reference %d", tc.seed, step, p.InFlight(), len(ref.lastAt))
			}
		}
		for _, skb := range live {
			skb.Free()
		}
		if got, want := PrometheusText(p.M), PrometheusText(ref.m); got != want {
			t.Fatalf("seed %d: Prometheus text differs from the map reference\ngot:\n%s\nwant:\n%s", tc.seed, got, want)
		}
		sameEvents(t, tc.seed, "Events", p.T.Events(), ref.t.eventsSince(0))
		sameEvents(t, tc.seed, "EventsSince drain", gotStream, wantStream)
		if p.T.Total() != ref.t.seq || p.T.Overwritten != ref.t.Overwritten || p.T.SampledOut != ref.t.SampledOut {
			t.Errorf("seed %d: total/overwritten/sampled-out %d/%d/%d, reference %d/%d/%d", tc.seed,
				p.T.Total(), p.T.Overwritten, p.T.SampledOut, ref.t.seq, ref.t.Overwritten, ref.t.SampledOut)
		}
		if ref.t.Overwritten == 0 && tc.capacity < 1000 {
			t.Errorf("seed %d: ring never wrapped", tc.seed)
		}
		if skbs.Outstanding() != 0 {
			t.Errorf("seed %d: %d SKBs outstanding", tc.seed, skbs.Outstanding())
		}
	}
}

// sameEvents requires two event streams to serialize byte-identically.
func sameEvents(t *testing.T, seed int64, what string, got, want []Event) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("seed %d: %s: %d events differ from the reference's %d", seed, what, len(got), len(want))
	}
}
