// Package obs is the simulator's observability subsystem: per-packet
// lifecycle spans and a labeled metrics registry, with exporters to the
// formats real tooling consumes (Prometheus text exposition, JSON
// snapshots, Chrome trace-event JSON loadable in Perfetto).
//
// It is the in-simulator equivalent of the instrumentation the paper's
// evaluation rests on — the eBPF poll-order tables of Fig. 6, the
// per-stage latency decompositions behind Figs. 4–5, and the CPU-usage
// accounting of Figs. 10–13 — generalized so every layer of the receive
// pipeline (DMA ring → IRQ → NAPI poll → bridge forward → VXLAN decap →
// veth poll → socket deliver) reports into one place.
//
// # Collection model
//
// A Pipeline bundles one Tracer (bounded span stream) and one Registry
// (labeled counters/gauges/histograms) for one collection domain — a
// single engine instance: one host, one shard, or one mode run. All
// instrumentation points (internal/nic, internal/softirq, internal/socket,
// the internal/cluster fabric, internal/fault) record through a
// per-device handle (Dev, from Pipeline.Dev) and are zero-cost when it is
// nil. A handle resolves each of its series from the Registry on first
// use and caches it, so the per-packet path indexes a slice instead of
// hashing a registry key, while the registry's contents — and so every
// export — are the same as if each event had called the Registry.
//
// # Determinism under sharding
//
// Collection is strictly shard-local: a Pipeline is only ever touched by
// the single goroutine running its engine, so no synchronization exists
// on the hot path. Aggregation happens after the run via Registry.Merge
// and MergeEvents, both deterministic: counter merge is addition,
// histogram merge is per-bucket addition (both order-independent), and
// event-stream merge sorts by the stable key (time, stream index,
// per-stream sequence). The parallel determinism regressions in
// internal/experiments assert metrics and span streams are bit-identical
// across 1/2/4 workers.
package obs

import (
	"sort"

	"prism/internal/sim"
)

// Canonical stage names, in pipeline order. They are the values of the
// "stage" metric label and the span names in trace exports.
const (
	StageDMA    = "dma"    // frame DMA'd into the RX descriptor ring
	StageIRQ    = "irq"    // hardware interrupt raised (device-level)
	StageNIC    = "nic"    // stage-1 driver poll, incl. VXLAN decap
	StageBridge = "bridge" // stage-2 bridge FDB forward
	StageVeth   = "veth"   // stage-3 backlog/veth poll
	StageSocket = "socket" // payload copied into the socket buffer
	StageGRO    = "gro"    // frame absorbed into a GRO super-SKB
	StageDrop   = "drop"   // packet discarded
	StageShed   = "shed"   // low-priority packet evicted by the overload policy
)

// PipelineStages lists the span-producing stages of the overlay receive
// path in order, for breakdown reports.
var PipelineStages = []string{StageNIC, StageBridge, StageVeth, StageSocket}

// NoPacket marks device-level events (IRQs) that have no packet identity.
const NoPacket = ^uint64(0)

// EventKind distinguishes point events from intervals.
type EventKind uint8

// Event kinds.
const (
	KindInstant EventKind = iota + 1
	KindSpan
)

// Event is one lifecycle observation: an instant (DMA, IRQ, deliver,
// drop) or a span (a stage processing a packet). Instants have
// Start == End.
type Event struct {
	// Seq is the per-tracer sequence number; MergeEvents uses it to break
	// equal-time ties within one stream.
	Seq      uint64
	Kind     EventKind
	Stage    string
	Device   string
	Pkt      uint64 // NoPacket for device-level events
	Priority int
	Start    sim.Time
	End      sim.Time
}

// Time returns the event's representative timestamp (span start).
func (e Event) Time() sim.Time { return e.Start }

// Duration returns the span length (zero for instants).
func (e Event) Duration() sim.Time { return e.End - e.Start }

// Pipeline is the per-engine-instance observability bundle: a Tracer for
// the span stream and a Registry for metrics. Lifecycle events become
// stage wait/service decompositions through a wait cursor each packet
// carries on its SKB (pkt.SKB.WaitCursor). Recording goes through
// per-device handles (Dev), resolved once by each instrumentation point.
type Pipeline struct {
	// Shard labels every metric this pipeline records; it identifies the
	// collection domain (RSS shard, mode run) in merged exports. Set it
	// before recording: handles cache series with the label they were
	// first resolved under.
	Shard string

	T *Tracer
	M *Registry

	// inFlight counts packets whose wait cursor (carried on the SKB, see
	// Dev.Span) is open.
	inFlight int

	// devs holds the handle of every device resolved so far; root is the
	// device-less handle (end-to-end latency, fault injections).
	devs map[string]*Dev
	root *Dev
}

// NewPipeline returns a pipeline labeled with the given shard name, with
// a default-capacity tracer and an empty registry.
func NewPipeline(shard string) *Pipeline {
	p := &Pipeline{
		Shard: shard,
		T:     NewTracer(0),
		M:     NewRegistry(),
		devs:  make(map[string]*Dev),
	}
	p.root = p.Dev("")
	return p
}

// InFlight reports how many packets have an open lifecycle (diagnostic).
func (p *Pipeline) InFlight() int { return p.inFlight }

// StageFabric is the datacenter fabric forwarding stage: a ToR or spine
// switch carrying a frame between hosts (internal/cluster).
const StageFabric = "fabric"

// DefaultTracerCap bounds the span ring buffer: 64 Ki events is a few MB
// and several full softirq bursts of context.
const DefaultTracerCap = 1 << 16

// Tracer accumulates lifecycle events into a bounded ring buffer with
// optional per-packet sampling. Memory is bounded by construction: once
// the ring is full, new events overwrite the oldest (the overwrite count
// is kept, so exporters can report truncation instead of silently
// pretending full coverage).
type Tracer struct {
	capacity int
	// sampleEvery, when > 1, keeps only packets whose ID ≡ 0 (mod N);
	// device-level events are always kept. Aggregate metrics are not
	// affected — sampling bounds only the span stream.
	sampleEvery uint64

	events []Event
	head   int // ring start when full
	seq    uint64

	// Overwritten counts events displaced from the full ring; SampledOut
	// counts events skipped by the sampling filter.
	Overwritten uint64
	SampledOut  uint64
}

// NewTracer returns a tracer with the given ring capacity (<= 0 uses
// DefaultTracerCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCap
	}
	return &Tracer{capacity: capacity}
}

// SetSampling keeps only every n-th packet's events (by packet ID).
// n <= 1 disables sampling.
func (t *Tracer) SetSampling(n int) {
	if n <= 1 {
		t.sampleEvery = 0
		return
	}
	t.sampleEvery = uint64(n)
}

// add records one event, writing its fields straight into the ring slot.
func (t *Tracer) add(kind EventKind, stage, device string, pkt uint64, prio int, start, end sim.Time) {
	if t == nil {
		return
	}
	if t.sampleEvery > 1 && pkt != NoPacket && pkt%t.sampleEvery != 0 {
		t.SampledOut++
		return
	}
	var ev *Event
	if n := len(t.events); n < t.capacity {
		t.events = append(t.events, Event{})
		ev = &t.events[n]
	} else {
		ev = &t.events[t.head]
		t.head++
		if t.head == t.capacity {
			t.head = 0
		}
		t.Overwritten++
	}
	ev.Seq, ev.Kind, ev.Stage, ev.Device = t.seq, kind, stage, device
	ev.Pkt, ev.Priority, ev.Start, ev.End = pkt, prio, start, end
	t.seq++
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int { return len(t.events) }

// Total returns how many events were ever recorded (including ones since
// overwritten, excluding sampled-out ones).
func (t *Tracer) Total() uint64 { return t.seq }

// Events returns the buffered events in recording order.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.head:]...)
	out = append(out, t.events[:t.head]...)
	return out
}

// EventsSince returns the buffered events whose sequence number is at or
// past cursor, in recording order — the incremental-export counterpart of
// Events. Pass the previous call's Total() as the cursor to drain only
// what arrived since. Events that were overwritten in the ring before
// being drained are lost (the Overwritten counter reports how many); the
// live surface trades that bounded loss for bounded memory.
func (t *Tracer) EventsSince(cursor uint64) []Event {
	if t == nil || cursor >= t.seq {
		return nil
	}
	// The ring holds events with Seq in [t.seq-len(t.events), t.seq).
	oldest := t.seq - uint64(len(t.events))
	skip := 0
	if cursor > oldest {
		skip = int(cursor - oldest)
	}
	out := make([]Event, 0, len(t.events)-skip)
	tail := t.events[t.head:]
	if skip < len(tail) {
		out = append(out, tail[skip:]...)
		out = append(out, t.events[:t.head]...)
	} else {
		out = append(out, t.events[skip-len(tail):t.head]...)
	}
	return out
}

// MergeEvents folds shard-local event streams into one, ordered by
// (time, stream index, per-stream sequence). Pass streams in shard ID
// order; the stream index breaks cross-shard timestamp ties the same way
// every run, so the merged stream is deterministic regardless of worker
// count — the same discipline as trace.Merge and stats.MergeHistograms.
//
// A full sort (not a k-way merge) is required: within one engine, spans
// of a poll batch are emitted with start times ahead of the simulation
// clock (the core ledger runs ahead), while IRQ/DMA instants land at the
// current clock, so a single stream is not internally time-sorted.
func MergeEvents(streams ...[]Event) []Event {
	type keyed struct {
		ev     Event
		stream int
	}
	var all []keyed
	for si, s := range streams {
		for _, ev := range s {
			all = append(all, keyed{ev: ev, stream: si})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.ev.Start != b.ev.Start {
			return a.ev.Start < b.ev.Start
		}
		if a.stream != b.stream {
			return a.stream < b.stream
		}
		return a.ev.Seq < b.ev.Seq
	})
	out := make([]Event, len(all))
	for i, k := range all {
		out[i] = k.ev
	}
	return out
}
