package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"prism/internal/pkt"
	"prism/internal/sim"
)

// skbOf returns an unpooled SKB with the given identity, as the NIC would
// hand to DMA.
func skbOf(id uint64, prio int, arrived sim.Time) *pkt.SKB {
	return &pkt.SKB{ID: id, Priority: prio, Arrived: arrived}
}

// addEvent records ev through the tracer's field-wise add.
func addEvent(tr *Tracer, ev Event) {
	tr.add(ev.Kind, ev.Stage, ev.Device, ev.Pkt, ev.Priority, ev.Start, ev.End)
}

func TestPipelineLifecycle(t *testing.T) {
	p := NewPipeline("s0")
	// Packet 7: DMA at 100, NIC span [150, 180], bridge span [200, 220],
	// delivered at 250.
	skb := skbOf(7, 1, 100)
	p.Dev("eth0").DMA(100, skb)
	p.Dev("eth0").IRQ(110)
	p.Dev("eth0").Span(StageNIC, skb, 150, 180)
	p.Dev("br0").Span(StageBridge, skb, 200, 220)
	p.Dev("c0").Deliver(250, skb)

	if got := p.M.CounterValue("prism_dma_frames_total", Labels{}); got != 1 {
		t.Errorf("dma counter = %d, want 1", got)
	}
	if got := p.M.CounterValue("prism_irqs_total", Labels{}); got != 1 {
		t.Errorf("irq counter = %d, want 1", got)
	}
	if got := p.M.CounterValue("prism_delivered_total", Labels{}); got != 1 {
		t.Errorf("delivered counter = %d, want 1", got)
	}
	// NIC wait = 150-100 = 50; NIC service = 30.
	wait := p.M.Histogram("prism_stage_wait_ns", Labels{Device: "eth0", Stage: StageNIC, Priority: 1, Shard: "s0"})
	if wait.Hist().Count() != 1 || wait.Hist().Max() != 50 {
		t.Errorf("nic wait = %v (n=%d), want 50", wait.Hist().Max(), wait.Hist().Count())
	}
	svc := p.M.Histogram("prism_stage_service_ns", Labels{Device: "eth0", Stage: StageNIC, Priority: 1, Shard: "s0"})
	if svc.Hist().Count() != 1 || svc.Hist().Max() != 30 {
		t.Errorf("nic service = %v, want 30", svc.Hist().Max())
	}
	// E2E = 250-100 = 150.
	e2e := p.M.Histogram("prism_e2e_latency_ns", Labels{Priority: 1, Shard: "s0"})
	if e2e.Hist().Count() != 1 || e2e.Hist().Max() != 150 {
		t.Errorf("e2e = %v, want 150", e2e.Hist().Max())
	}
	// Lifecycle closed: no cursor left open.
	if p.InFlight() != 0 {
		t.Errorf("in-flight = %d after deliver, want 0", p.InFlight())
	}
	// 5 events buffered.
	if p.T.Len() != 5 {
		t.Errorf("tracer len = %d, want 5", p.T.Len())
	}
}

func TestPipelineDropAndAbsorb(t *testing.T) {
	p := NewPipeline("")
	a, b := skbOf(1, 0, 10), skbOf(2, 0, 30)
	p.Dev("eth0").DMA(10, a)
	p.Dev("eth0").Drop(20, StageNIC, a)
	p.Dev("eth0").DMA(30, b)
	p.Dev("eth0").Absorbed(40, b)
	if p.InFlight() != 0 {
		t.Errorf("in-flight = %d, want 0", p.InFlight())
	}
	if got := p.M.CounterValue("prism_dropped_total", Labels{}); got != 1 {
		t.Errorf("dropped = %d", got)
	}
	if got := p.M.CounterValue("prism_gro_absorbed_total", Labels{}); got != 1 {
		t.Errorf("absorbed = %d", got)
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		addEvent(tr, Event{Stage: StageDMA, Pkt: uint64(i), Start: sim.Time(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Total() != 10 {
		t.Errorf("total = %d, want 10", tr.Total())
	}
	if tr.Overwritten != 6 {
		t.Errorf("overwritten = %d, want 6", tr.Overwritten)
	}
	// Ring holds the newest 4 events in recording order.
	evs := tr.Events()
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Pkt != want {
			t.Errorf("event %d pkt = %d, want %d", i, ev.Pkt, want)
		}
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(0)
	tr.SetSampling(4)
	for i := 0; i < 16; i++ {
		addEvent(tr, Event{Stage: StageNIC, Pkt: uint64(i), Start: sim.Time(i)})
	}
	addEvent(tr, Event{Stage: StageIRQ, Pkt: NoPacket, Start: 100}) // device events always kept
	if tr.Len() != 5 {
		t.Errorf("len = %d, want 5 (pkts 0,4,8,12 + IRQ)", tr.Len())
	}
	if tr.SampledOut != 12 {
		t.Errorf("sampled out = %d, want 12", tr.SampledOut)
	}
	tr.SetSampling(0) // disable
	addEvent(tr, Event{Stage: StageNIC, Pkt: 3, Start: 200})
	if tr.Len() != 6 {
		t.Errorf("len after disabling sampling = %d, want 6", tr.Len())
	}
}

func TestMergeEventsDeterministic(t *testing.T) {
	// Streams with interleaved and equal timestamps; one stream not
	// internally time-sorted (poll-batch spans start ahead of the clock).
	s0 := []Event{
		{Seq: 0, Kind: KindSpan, Stage: StageNIC, Start: 50, End: 60},
		{Seq: 1, Kind: KindInstant, Stage: StageIRQ, Start: 40, End: 40},
		{Seq: 2, Kind: KindSpan, Stage: StageNIC, Start: 50, End: 70},
	}
	s1 := []Event{
		{Seq: 0, Kind: KindInstant, Stage: StageDMA, Start: 50, End: 50},
	}
	m := MergeEvents(s0, s1)
	if len(m) != 4 {
		t.Fatalf("merged %d events, want 4", len(m))
	}
	if m[0].Stage != StageIRQ {
		t.Errorf("first merged event = %s, want irq (t=40)", m[0].Stage)
	}
	// Equal time 50: stream 0 before stream 1, seq order within stream 0.
	if m[1].Seq != 0 || m[1].Kind != KindSpan {
		t.Errorf("tie-break wrong: m[1] = %+v", m[1])
	}
	if m[2].Seq != 2 || m[3].Stage != StageDMA {
		t.Errorf("tie-break wrong: m[2]=%+v m[3]=%+v", m[2], m[3])
	}
	// Permuting events WITHIN a call must not matter for the sorted output
	// key; repeating the same call must be bit-identical.
	if !reflect.DeepEqual(m, MergeEvents(s0, s1)) {
		t.Error("MergeEvents not deterministic across calls")
	}
}

func TestRegistryMergeWorkerInvariance(t *testing.T) {
	// Record the same logical observations split across 1, 2 and 4
	// shard-local registries; merged exports must be bit-identical.
	record := func(regs []*Registry) *Registry {
		for i := 0; i < 1000; i++ {
			r := regs[i%len(regs)]
			l := Labels{Device: "eth0", Stage: StageNIC, Priority: i % 3}
			r.Counter("prism_stage_packets_total", l).Add(1)
			r.Histogram("prism_stage_service_ns", l).Observe(sim.Time(i * 10))
			r.Gauge("prism_backlog_depth", l).Set(float64(i % 17))
		}
		return MergeRegistries(regs...)
	}
	mk := func(n int) []*Registry {
		regs := make([]*Registry, n)
		for i := range regs {
			regs[i] = NewRegistry()
		}
		return regs
	}
	one := PrometheusText(record(mk(1)))
	two := PrometheusText(record(mk(2)))
	four := PrometheusText(record(mk(4)))
	if one != two || two != four {
		t.Error("merged Prometheus text differs across shard counts")
	}
}

func TestPrometheusTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("prism_delivered_total", Labels{Device: "c0", Priority: 1}).Add(42)
	r.Gauge("prism_backlog_depth", Labels{Device: "veth0"}).Set(3)
	r.Histogram("prism_e2e_latency_ns", Labels{Priority: 0}).Observe(1000)
	out := PrometheusText(r)
	for _, want := range []string{
		"# TYPE prism_delivered_total counter",
		`prism_delivered_total{device="c0",priority="1"} 42`,
		"# TYPE prism_backlog_depth gauge",
		"# TYPE prism_e2e_latency_ns summary",
		`prism_e2e_latency_ns{priority="0",quantile="0.5"} 1000`,
		`prism_e2e_latency_ns_sum{priority="0"} 1000`,
		`prism_e2e_latency_ns_count{priority="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus text missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsJSONValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("prism_irqs_total", Labels{Device: "eth0", Stage: StageIRQ}).Add(5)
	r.Histogram("prism_e2e_latency_ns", Labels{}).Observe(12345)
	b, err := MetricsJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 5 {
		t.Errorf("counters = %+v", snap.Counters)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].P50 != 12345 {
		t.Errorf("histograms = %+v", snap.Histograms)
	}
}

func TestChromeTraceValid(t *testing.T) {
	p := NewPipeline("vanilla")
	skb := skbOf(0, 1, 1000)
	p.Dev("eth0").DMA(1000, skb)
	p.Dev("eth0").Span(StageNIC, skb, 2000, 3500)
	p.Dev("c0").Deliver(5000, skb)
	b, err := ChromeTrace(TraceProcess{Name: "vanilla", Events: p.T.Events()})
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	var metas, spans, instants int
	for _, ev := range file.TraceEvents {
		switch ev["ph"] {
		case "M":
			metas++
		case "X":
			spans++
			if ev["dur"].(float64) != 1.5 { // 1500ns = 1.5µs
				t.Errorf("span dur = %v, want 1.5", ev["dur"])
			}
		case "i":
			instants++
		}
	}
	// process_name + 2 thread_name rows; 1 span; DMA + deliver instants.
	if metas != 3 || spans != 1 || instants != 2 {
		t.Errorf("metas/spans/instants = %d/%d/%d, want 3/1/2", metas, spans, instants)
	}
}

func TestStageBreakdown(t *testing.T) {
	p := NewPipeline("")
	// Two packets through nic and bridge with known waits/services.
	for id := uint64(0); id < 2; id++ {
		base := sim.Time(id) * 1000
		skb := skbOf(id, 0, base)
		p.Dev("eth0").DMA(base, skb)
		p.Dev("eth0").Span(StageNIC, skb, base+100, base+150)   // wait 100, svc 50
		p.Dev("br0").Span(StageBridge, skb, base+200, base+220) // wait 50, svc 20
		p.Dev("c0").Deliver(base+300, skb)
	}
	rows := StageBreakdown(p.M)
	if len(rows) != 3 { // nic, bridge, socket (wait only)
		t.Fatalf("breakdown rows = %d, want 3: %+v", len(rows), rows)
	}
	if rows[0].Stage != StageNIC || rows[1].Stage != StageBridge || rows[2].Stage != StageSocket {
		t.Errorf("row order = %s,%s,%s", rows[0].Stage, rows[1].Stage, rows[2].Stage)
	}
	if rows[0].Packets != 2 || rows[0].Service.Max != 50 || rows[0].Wait.Max != 100 {
		t.Errorf("nic row = %+v", rows[0])
	}
	if rows[1].Service.Max != 20 || rows[1].Wait.Max != 50 {
		t.Errorf("bridge row = %+v", rows[1])
	}
	e2e := E2ESummary(p.M)
	if e2e.Count != 2 || e2e.Max != 300 {
		t.Errorf("e2e summary = %+v", e2e)
	}
	if out := FormatBreakdown("test", rows); !strings.Contains(out, "bridge") {
		t.Errorf("formatted breakdown missing stage:\n%s", out)
	}
}

func TestCounterValueFilter(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", Labels{Device: "a", Priority: 1}).Add(1)
	r.Counter("x", Labels{Device: "b", Priority: 1}).Add(2)
	r.Counter("x", Labels{Device: "a", Priority: 2}).Add(4)
	if got := r.CounterValue("x", Labels{}); got != 7 {
		t.Errorf("unfiltered = %d, want 7", got)
	}
	if got := r.CounterValue("x", Labels{Device: "a"}); got != 5 {
		t.Errorf("device=a = %d, want 5", got)
	}
	if got := r.CounterValue("x", Labels{Priority: 1}); got != 3 {
		t.Errorf("priority=1 = %d, want 3", got)
	}
}

// TestDevResolvesSeriesOnFirstUse: resolving a handle creates nothing, and
// each event creates exactly the series a direct registry call would have —
// a wait histogram only once the packet has a previous lifecycle event.
func TestDevResolvesSeriesOnFirstUse(t *testing.T) {
	p := NewPipeline("s0")
	eth, br := p.Dev("eth0"), p.Dev("br0")
	if p.Dev("eth0") != eth {
		t.Fatal("Dev returned a second handle for the same device")
	}
	if len(p.M.counters)+len(p.M.hists) != 0 {
		t.Fatalf("resolving handles created %d series", len(p.M.counters)+len(p.M.hists))
	}
	br.Span(StageBridge, skbOf(9, 1, 0), 10, 20) // no DMA: no wait sample
	wait := Labels{Device: "br0", Stage: StageBridge, Priority: 1, Shard: "s0"}
	if _, ok := p.M.hists[metricKey{"prism_stage_wait_ns", wait}]; ok {
		t.Error("span without a previous event created a wait histogram")
	}
	skb := skbOf(10, 1, 30)
	eth.DMA(30, skb)
	br.Span(StageBridge, skb, 40, 45)
	if h := p.M.hists[metricKey{"prism_stage_wait_ns", wait}]; h == nil || h.Hist().Count() != 1 {
		t.Error("span after DMA did not record one wait sample")
	}
	if got := p.M.CounterValue("prism_stage_packets_total", Labels{Device: "br0"}); got != 2 {
		t.Errorf("br0 packets = %d, want 2", got)
	}
	if got := p.M.CounterValue("prism_dma_frames_total", Labels{}); got != 1 {
		t.Errorf("dma frames = %d, want 1", got)
	}
	// The handle keeps the registry's own children, so later events index
	// its cache instead of looking the key up again.
	s := br.at(StageBridge, 1)
	if s.packets != p.M.counters[metricKey{"prism_stage_packets_total", wait}] ||
		s.wait != p.M.hists[metricKey{"prism_stage_wait_ns", wait}] {
		t.Error("handle does not cache the series it resolved")
	}
}

// TestDevOutOfRangePriority: priorities outside the cached range still
// land in their own series.
func TestDevOutOfRangePriority(t *testing.T) {
	p := NewPipeline("")
	d := p.Dev("eth0")
	for _, prio := range []int{-1, 0, maxCachedPrio, maxCachedPrio + 1, 1000, 1000} {
		d.Drop(0, StageDMA, skbOf(1, prio, 0))
	}
	for prio, want := range map[int]uint64{-1: 1, 0: 1, maxCachedPrio: 1, maxCachedPrio + 1: 1, 1000: 2} {
		k := metricKey{"prism_dropped_total", Labels{Device: "eth0", Stage: StageDMA, Priority: prio}}
		if c := p.M.counters[k]; c == nil || c.Value() != want {
			t.Errorf("priority %d: counter %v, want %d", prio, c, want)
		}
	}
}

// TestDevZeroAllocAfterFirstUse: once a handle has resolved its series and
// the span ring has filled, a full packet lifecycle does not allocate.
func TestDevZeroAllocAfterFirstUse(t *testing.T) {
	p := NewPipeline("s0")
	lifecycle := lifecycleOn(p)
	for i := 0; i < DefaultTracerCap; i++ {
		lifecycle()
	}
	if n := testing.AllocsPerRun(1000, lifecycle); n != 0 {
		t.Errorf("packet lifecycle allocates %.1f times after warmup", n)
	}
}

// lifecycleOn returns a function recording one packet's full receive
// lifecycle (DMA, three stage spans, delivery) on p through pre-resolved
// handles, on an SKB drawn from and returned to a pool as the NIC and the
// socket do.
func lifecycleOn(p *Pipeline) func() {
	eth, br, veth, sock := p.Dev("eth0"), p.Dev("br0"), p.Dev("veth0"), p.Dev("c0")
	var skbs pkt.SKBPool
	var id uint64
	var now sim.Time
	return func() {
		id++
		now += 1000
		skb := skbs.Get()
		skb.ID, skb.Priority, skb.Arrived = id, 1, now
		eth.DMA(now, skb)
		eth.Span(StageNIC, skb, now+100, now+150)
		br.Span(StageBridge, skb, now+200, now+220)
		veth.Span(StageVeth, skb, now+300, now+340)
		sock.Deliver(now+400, skb)
		skb.Free()
	}
}

// BenchmarkObsSpan is the per-layer cost of one observed stage span on a
// pre-resolved handle: tracer append, packet counter, service and wait
// histograms, wait-cursor update. The handle and span ring are warmed
// before timing, so it reports 0 allocs/op.
func BenchmarkObsSpan(b *testing.B) {
	p := NewPipeline("s0")
	br, skb := p.Dev("br0"), skbOf(1, 1, 0)
	for i := 0; i < DefaultTracerCap; i++ {
		br.Span(StageBridge, skb, sim.Time(i), sim.Time(i)+20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := sim.Time(i) * 100
		br.Span(StageBridge, skb, t, t+20)
	}
}

// BenchmarkTracerAdd is the cost of one span event written into a full
// (wrapping) ring: sampling check, slot write, head wrap. It reports 0
// allocs/op.
func BenchmarkTracerAdd(b *testing.B) {
	tr := NewTracer(1024)
	for i := 0; i < 2*1024; i++ {
		tr.add(KindSpan, StageBridge, "br0", uint64(i), 1, sim.Time(i), sim.Time(i)+20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := sim.Time(i)
		tr.add(KindSpan, StageBridge, "br0", uint64(i), 1, t, t+20)
	}
}
