package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"prism/internal/cluster"
	"prism/internal/experiments"
	"prism/internal/fault"
	"prism/internal/obs"
	"prism/internal/overlay"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/socket"
	"prism/internal/stats"
	"prism/internal/testbed"
	"prism/internal/traffic"
)

// Workload shapes. The host workloads are the paper's Fig. 9 point; the
// cluster workload is the 16-host golden point of internal/experiments.
// The measured intervals are long enough that every hi p99 has well
// over minBeyond samples beyond it, and short enough that one episode
// takes at most a couple of host seconds, so a run of --seconds holds
// several episodes to take medians over.
const (
	hostWarmup   = 100 * sim.Millisecond
	hostDuration = 2 * sim.Second

	// observedFaultRate is the chaos experiment's lowest nonzero rate.
	observedFaultRate = 0.1

	clusterHosts      = 16
	clusterContainers = 1000
	clusterWarmup     = 10 * sim.Millisecond
	clusterDuration   = 100 * sim.Millisecond

	// sliceEvery is the virtual slice the host-time-per-slice metric
	// and the warmup/measure split are taken at.
	sliceEvery = sim.Millisecond
)

// hiPriority is the obs label value of high-priority packets.
const hiPriority = 1

// obsStages are the host pipeline stages whose high-priority wait and
// service the layer table reports. The fabric stage records only its
// residency (egress queue wait plus serialization), which the table
// reports as obs.fabric.hi.residency_us_p50/p99.
var obsStages = []string{obs.StageNIC, obs.StageBridge, obs.StageVeth, obs.StageSocket}

type workload struct {
	name string
	run  func(o runOpts) (*episode, error)
}

// workloads in BENCHMARK.json order; README.md says why each was chosen.
var workloads = []workload{
	{"host-burst", func(o runOpts) (*episode, error) { return hostEpisode(o, false) }},
	{"host-observed", func(o runOpts) (*episode, error) { return hostEpisode(o, true) }},
	{"cluster-spread", clusterEpisode},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOpts parameterizes one episode.
type runOpts struct {
	seed    uint64
	workers int
	// duration overrides the workload's measured interval (tests use
	// short ones); 0 keeps the default.
	duration sim.Time
	// traced episodes record spans under parent and profile the
	// measured interval.
	traced bool
	tr     *tracer
	parent int
}

func (o runOpts) durationOr(def sim.Time) sim.Time {
	if o.duration > 0 {
		return o.duration
	}
	return def
}

// episode is one build → warmup → measure → drain → check pass. Host-time
// fields vary run to run; virt and digest are exact for a seed.
type episode struct {
	traced   bool
	secs     map[string]float64 // host seconds per boundary, by span name
	sliceMS  []float64          // host ms per virtual slice of the measured interval (traced only)
	frames   uint64             // wire frames that reached hosts while measured
	heapMB   float64            // live heap after a forced GC at the horizon
	allocs   uint64             // heap objects allocated while measured
	allocB   uint64             // heap bytes allocated while measured
	gcCycles uint64
	gcPause  float64 // ms
	profile  []byte  // CPU profile of the measured interval (traced only)
	virt     virtual
	digest   string
}

func (e *episode) measureS() float64 { return e.secs["sim.measure"] }
func (e *episode) setupS() float64   { return e.secs[e.buildName()] + e.secs["sim.warmup"] }
func (e *episode) pktsPerS() float64 { return float64(e.frames) / e.measureS() }

func (e *episode) buildName() string {
	if _, ok := e.secs["cluster.build"]; ok {
		return "cluster.build"
	}
	return "testbed.build"
}

// virtual holds the simulated results. All of it is digested.
type virtual struct {
	HiP50us, HiP99us float64
	HiSamples        int
	HiBeyondP99      int
	LoKpps           float64
	Attempted        uint64 // echo requests sent (hi and lo)
	Unanswered       uint64 // of those, never answered after drain/settle
	Hi, Lo           stats.Summary
	Counters         map[string]float64
}

// failedFrac is the share of echo requests left unanswered after drain
// or settle, dropped, shed and refused ones included.
func (v virtual) failedFrac() float64 {
	if v.Attempted == 0 {
		return 0
	}
	return float64(v.Unanswered) / float64(v.Attempted)
}

// timer records host time spent in boundary calls into an episode, and
// a span per call when the episode is traced.
type timer struct {
	o runOpts
	e *episode
}

func (t timer) time(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.e.secs[name] += end.Sub(start).Seconds()
	t.o.tr.add(name, t.o.parent, start, end)
	return err
}

// meter observes a run through the simulator's virtual-time checkpoint
// hook, which is pure observation: it splits host time at the warmup
// boundary, times each virtual slice of the measured interval, and
// snapshots counters and (when traced) starts the CPU profile there.
type meter struct {
	t       timer
	warmup  sim.Time
	atWarm  func()
	mem0    runtime.MemStats
	prof    bytes.Buffer
	profErr error

	start, warmEnd, last time.Time
	measureSpan          int
}

func (m *meter) tick(at sim.Time) {
	now := time.Now()
	switch {
	case at == m.warmup:
		m.atWarm()
		// Start the measured interval from a collected heap, as Go's
		// own benchmarks do, so whether a GC cycle of the set-up's
		// garbage lands inside it does not vary from episode to episode.
		runtime.GC()
		runtime.ReadMemStats(&m.mem0)
		if m.t.o.traced {
			m.profErr = pprof.StartCPUProfile(&m.prof)
		}
		now = time.Now()
		m.warmEnd = now
		m.t.e.secs["sim.warmup"] = now.Sub(m.start).Seconds()
		m.t.o.tr.add("sim.warmup", m.t.o.parent, m.start, now)
		m.measureSpan = m.t.o.tr.open("sim.measure", m.t.o.parent, now)
	case at > m.warmup && m.t.o.traced:
		m.t.e.sliceMS = append(m.t.e.sliceMS, float64(now.Sub(m.last))/1e6)
		m.t.o.tr.add("sim.slice", m.measureSpan, m.last, now)
	}
	m.last = now
}

// run executes the simulation call, then records the measured interval,
// its allocations, and the live heap after a forced GC at the horizon.
func (m *meter) run(fn func() error) error {
	m.start = time.Now()
	m.last = m.start
	err := fn()
	end := time.Now()
	if m.t.o.traced && m.profErr == nil && !m.warmEnd.IsZero() {
		pprof.StopCPUProfile()
		m.t.e.profile = m.prof.Bytes()
	}
	if err != nil {
		return err
	}
	if m.profErr != nil {
		return fmt.Errorf("cpu profile: %w", m.profErr)
	}
	if m.warmEnd.IsZero() {
		return fmt.Errorf("warmup checkpoint at %v never fired", m.warmup)
	}
	e := m.t.e
	e.secs["sim.measure"] = end.Sub(m.warmEnd).Seconds()
	m.t.o.tr.close(m.measureSpan, end)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	e.allocs = mem.Mallocs - m.mem0.Mallocs
	e.allocB = mem.TotalAlloc - m.mem0.TotalAlloc
	e.gcCycles = uint64(mem.NumGC - m.mem0.NumGC)
	e.gcPause = float64(mem.PauseTotalNs-m.mem0.PauseTotalNs) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&mem)
	e.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	return nil
}

func newEpisode(o runOpts, warmup sim.Time, atWarm func()) (*episode, timer, *meter) {
	e := &episode{traced: o.traced, secs: map[string]float64{}}
	t := timer{o: o, e: e}
	return e, t, &meter{t: t, warmup: warmup, atWarm: atWarm}
}

// hostEpisode runs one host workload: host-burst (PRISM-sync, no
// observation, no faults) or host-observed (vanilla two-list NAPI with an
// obs pipeline, the fault plane at a low rate, shedding, and a second,
// unprioritized ping-pong).
func hostEpisode(o runOpts, observed bool) (*episode, error) {
	p := experiments.Default()
	p.Seed, p.Warmup, p.Duration = o.seed, hostWarmup, o.durationOr(hostDuration)

	var (
		tb      *testbed.Testbed
		hi, lo  *traffic.PingPong
		fl      *traffic.UDPFlood
		pipe    *obs.Pipeline
		samples []float64
		frames0 uint64
		lo0     uint64
	)
	loDelivered := func() uint64 {
		n := fl.Delivered.Count()
		if lo != nil {
			n += lo.Received
		}
		return n
	}
	e, t, m := newEpisode(o, p.Warmup, func() {
		frames0, lo0 = tb.Host().RxWire, loDelivered()
	})

	mode := prio.ModeSync
	var opts []experiments.RigOption
	if observed {
		mode = prio.ModeVanilla
		pipe = obs.NewPipeline("host-observed")
		opts = append(opts, experiments.WithObs(pipe),
			experiments.WithFault(&fault.Config{Seed: p.Seed, Rate: observedFaultRate}),
			experiments.WithShed())
	}
	err := t.time("testbed.build", func() error {
		tb = experiments.NewTestbed(p, mode, testbed.Monolithic, opts...)
		var err error
		if hi, err = addEcho(tb, p, "hi-srv", 0, experiments.PortHighPrio, true); err != nil {
			return err
		}
		hi.OnSample = func(_ uint64, lat sim.Time) { samples = append(samples, float64(lat)) }
		bgIdx := 1
		if observed {
			if lo, err = addEcho(tb, p, "lo-srv", 1, experiments.PortLowPrio, false); err != nil {
				return err
			}
			bgIdx = 2
		}
		h := tb.Host()
		fl = traffic.NewUDPFlood(tb.Eng, h, h.AddContainer("bg-srv"), clientSrc(bgIdx), experiments.PortBackgrnd, p.BGRate)
		fl.Burst, fl.Poisson, fl.JitterFrac = p.BGBurst, false, 0.25
		if err := fl.InstallSink(p.SinkCost); err != nil {
			return err
		}
		fl.Start(0)
		tb.SetCheckpoint(sliceEvery, m.tick)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := m.run(func() error { return tb.Run(p.Warmup, p.Duration, 1) }); err != nil {
		return nil, err
	}
	h := tb.Host()
	e.frames = h.RxWire - frames0
	v := &e.virt
	v.LoKpps = float64(loDelivered()-lo0) / p.Duration.Seconds() / 1e3
	v.Counters = map[string]float64{"cpu.proc_util": h.ProcCore.Utilization(tb.Eng.Now())}

	tb.SetCheckpoint(0, nil)
	hi.Stop()
	if lo != nil {
		lo.Stop()
	}
	fl.Stop()
	if err := t.time("testbed.drain", tb.Drain); err != nil {
		return nil, err
	}
	if err := t.time("testbed.check", func() error { return testbed.CheckHosts(tb.Hosts, tb.Planes, true) }); err != nil {
		return nil, err
	}

	pps := []*traffic.PingPong{hi}
	if lo != nil {
		pps = append(pps, lo)
	}
	for _, pp := range pps {
		v.Attempted += pp.Sent
		v.Unanswered += pp.Sent - pp.Received
	}
	var pipes []*obs.Pipeline
	if pipe != nil {
		pipes = append(pipes, pipe)
	}
	var reg *obs.Registry
	var obsSum string
	err = t.time("obs.export", func() error {
		var err error
		reg, obsSum, err = exportObs(pipes)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = t.time("stats.summarize", func() error {
		summarize(v, samples, hi.Hist, loHist(lo), reg)
		hostCounters(v.Counters, tb.Hosts, tb.Planes)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e, t.time("obs.export", func() error {
		var err error
		e.digest, err = digest(v, obsSum)
		return err
	})
}

func loHist(lo *traffic.PingPong) *stats.Histogram {
	if lo == nil {
		return stats.NewHistogram()
	}
	return lo.Hist
}

// clientSrc is the client-side endpoint of flow idx; source ports are
// disjoint per flow so the client can demux replies.
func clientSrc(idx int) overlay.RemoteEndpoint {
	return overlay.ClientContainer(idx, uint16(40000+idx))
}

func addEcho(tb *testbed.Testbed, p experiments.Params, name string, idx int, port uint16, hi bool) (*traffic.PingPong, error) {
	h := tb.Host()
	ctr := h.AddContainer(name)
	pp := traffic.NewPingPong(tb.Eng, h, ctr, clientSrc(idx), port, p.HighRate)
	if hi {
		h.DB.Add(prio.Rule{IP: ctr.IP, Port: port})
	}
	pp.Warmup = p.Warmup
	if err := pp.InstallEcho(p.EchoCost); err != nil {
		return nil, err
	}
	pp.Start(tb.Client, 0)
	return pp, nil
}

// clusterSpecs is the golden point's workload: one flood sink per host,
// every ninth remaining container a hi echo at 1 kpps, the rest lo echoes
// at a fifth of that, ingress spread deterministically so most flows
// cross the fabric.
func clusterSpecs(p experiments.Params) []cluster.ContainerSpec {
	specs := make([]cluster.ContainerSpec, 0, clusterContainers)
	for i := 0; i < clusterContainers; i++ {
		sp := cluster.ContainerSpec{Ingress: (i*7 + 3) % clusterHosts}
		switch {
		case i < clusterHosts:
			sp.Name, sp.Flood, sp.Rate = fmt.Sprintf("bg%04d", i), true, p.BGRate/8
		case (i-clusterHosts)%9 == 0:
			sp.Name, sp.Hi, sp.Rate = fmt.Sprintf("hi%04d", i), true, p.HighRate
		default:
			sp.Name, sp.Rate = fmt.Sprintf("lo%04d", i), p.HighRate/5
		}
		specs = append(specs, sp)
	}
	return specs
}

// clusterEpisode runs the 16-host golden point with spread placement,
// PRISM-sync hosts and admission control over o.workers par workers.
func clusterEpisode(o runOpts) (*episode, error) {
	p := experiments.Default()
	p.Seed, p.Warmup, p.Duration = o.seed, clusterWarmup, o.durationOr(clusterDuration)

	var (
		c            *cluster.Cluster
		perFlow      [][]float64
		frames0, lo0 uint64
		windows0     uint64
		hostFrames   = func() (n uint64) {
			for _, nd := range c.Nodes {
				n += nd.Host.RxWire
			}
			return n
		}
		loDelivered = func() uint64 {
			_, _, _, loRecv, _, floodRecv := c.FlowCounts()
			return loRecv + floodRecv
		}
	)
	e, t, m := newEpisode(o, p.Warmup, func() {
		frames0, lo0, windows0 = hostFrames(), loDelivered(), c.Group.Windows
	})
	err := t.time("cluster.build", func() error {
		var err error
		c, err = cluster.New(cluster.Config{
			Hosts:     clusterHosts,
			Placement: cluster.PlaceSpread,
			Seed:      p.Seed,
			Host:      experiments.BaseSpec(p, prio.ModeSync),
			Specs:     clusterSpecs(p),
			Admission: &cluster.Admission{Rate: 55_000, Burst: 96, HiReserve: 0.25},
			Warmup:    p.Warmup,
			EchoCost:  p.EchoCost,
			SinkCost:  p.SinkCost,
		})
		if err != nil {
			return err
		}
		// Each flow's replies arrive on its ingress shard only, so one
		// slice per flow is written by one goroutine.
		perFlow = make([][]float64, len(c.Flows))
		for i, f := range c.Flows {
			if f.PP != nil && f.Spec.Hi {
				f.PP.OnSample = func(_ uint64, lat sim.Time) { perFlow[i] = append(perFlow[i], float64(lat)) }
			}
		}
		c.SetCheckpoint(sliceEvery, m.tick)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := m.run(func() error { return c.Run(p.Duration, o.workers) }); err != nil {
		return nil, err
	}
	e.frames = hostFrames() - frames0
	windows := c.Group.Windows - windows0
	v := &e.virt
	v.LoKpps = float64(loDelivered()-lo0) / p.Duration.Seconds() / 1e3
	util := 0.0
	for _, nd := range c.Nodes {
		util += nd.Host.ProcCore.Utilization(c.Horizon())
	}
	utilMax, _ := c.FabricUtilization(c.Horizon())
	drops, shed := c.FabricDrops()
	v.Counters = map[string]float64{
		"cpu.proc_util":           util / float64(len(c.Nodes)),
		"par.windows":             float64(windows),
		"par.frames_per_window":   float64(e.frames) / float64(windows),
		"cluster.admit_denied":    float64(c.AdmissionDenied()),
		"cluster.fabric_drops":    float64(drops),
		"cluster.fabric_shed":     float64(shed),
		"cluster.fabric_util_max": utilMax,
	}
	// Export at the measured horizon, before Settle moves the clocks on,
	// as the cluster experiment's digests do.
	c.SetCheckpoint(0, nil)
	var merged *obs.Registry
	var obsSum string
	err = t.time("obs.export", func() error {
		var err error
		merged, obsSum, err = exportObs(c.Pipes())
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := t.time("cluster.settle", func() error { return c.Settle(0, o.workers) }); err != nil {
		return nil, err
	}
	if err := t.time("cluster.check", func() error { return c.CheckInvariants(true) }); err != nil {
		return nil, err
	}
	hiSent, hiRecv, loSent, loRecv, _, _ := c.FlowCounts()
	v.Attempted = hiSent + loSent
	v.Unanswered = hiSent - hiRecv + loSent - loRecv
	hosts := make([]*overlay.Host, len(c.Nodes))
	for i, nd := range c.Nodes {
		hosts[i] = nd.Host
	}
	err = t.time("stats.summarize", func() error {
		var samples []float64
		for _, s := range perFlow {
			samples = append(samples, s...)
		}
		hiH, loH := c.LatencyHists()
		summarize(v, samples, hiH, loH, merged)
		hostCounters(v.Counters, hosts, nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return e, t.time("obs.export", func() error {
		var err error
		e.digest, err = digest(v, obsSum)
		return err
	})
}

// summarize fills the latency results: exact hi percentiles from the raw
// RTT/2 samples, the bucketed hi/lo histogram summaries, and the per-stage
// hi wait/service breakdown when an obs registry exists.
func summarize(v *virtual, samples []float64, hi, lo *stats.Histogram, reg *obs.Registry) {
	sort.Float64s(samples)
	v.HiSamples = len(samples)
	v.HiP50us = quantile(samples, 0.50) / 1e3
	v.HiP99us = quantile(samples, 0.99) / 1e3
	v.HiBeyondP99 = beyond(len(samples), 0.99)
	v.Hi, v.Lo = hi.Summarize(), lo.Summarize()
	if reg == nil {
		return
	}
	for _, st := range obs.StageBreakdownFilter(reg, obs.Labels{Priority: hiPriority}) {
		v.Counters["obs."+st.Stage+".hi.wait_us_p99"] = st.Wait.P99.Micros()
		v.Counters["obs."+st.Stage+".hi.service_us_p50"] = st.Service.P50.Micros()
	}
	fabric := stats.NewHistogram()
	reg.EachHistogram(func(name string, l obs.Labels, h *obs.HistogramMetric) {
		if name == "prism_fabric_residency_ns" && l.Priority == hiPriority {
			fabric.Merge(h.Hist())
		}
	})
	if fabric.Count() > 0 {
		v.Counters["obs.fabric.hi.residency_us_p50"] = fabric.Quantile(0.50).Micros()
		v.Counters["obs.fabric.hi.residency_us_p99"] = fabric.Quantile(0.99).Micros()
	}
}

// hostCounters adds the hosts' virtual-side counters, summed over hosts,
// for the whole run including warmup and drain.
func hostCounters(c map[string]float64, hosts []*overlay.Host, planes []*fault.Plane) {
	add := func(k string, n uint64) { c[k] += float64(n) }
	for _, h := range hosts {
		for _, n := range h.NICs {
			add("nic.dma_pkts", n.DMAd)
			add("nic.ring_drops", n.Dev.LowQ.Dropped+n.Dev.HighQ.Dropped)
			add("nic.gro_merged", n.Merged)
			add("nic.shed", n.ShedDrops)
		}
		for _, rx := range h.Rxs {
			st := rx.Stats()
			add("softirq.delivered", st.Delivered)
			add("softirq.dropped", st.Dropped)
		}
		tables := []*socket.Table{h.HostSockets}
		for _, ctr := range h.Containers {
			tables = append(tables, ctr.Sockets)
		}
		for _, tbl := range tables {
			tbl.Each(func(s *socket.Socket) { add("socket.rcvbuf_drops", s.Drops) })
		}
	}
	for _, pl := range planes {
		f := pl.Stats()
		add("fault.injected", f.Corrupted+f.LinkFlaps+f.Jittered+f.OverrunBursts+
			f.IRQsLost+f.IRQsSpurious+f.SoftirqStalls+f.ConsumerStalls+f.HostCrashes+f.TorLinkDowns)
		add("fault.watchdog_rescues", f.WatchdogRescues)
	}
}

// exportObs merges the pipelines' registries and span streams in order
// and returns the merged registry with a SHA-256 over its Prometheus
// text and the merged spans. With no pipelines it returns a nil registry
// and an empty sum.
func exportObs(pipes []*obs.Pipeline) (*obs.Registry, string, error) {
	if len(pipes) == 0 {
		return nil, "", nil
	}
	regs := make([]*obs.Registry, len(pipes))
	streams := make([][]obs.Event, len(pipes))
	for i, p := range pipes {
		regs[i], streams[i] = p.M, p.T.Events()
	}
	merged := obs.MergeRegistries(regs...)
	spans, err := json.Marshal(obs.MergeEvents(streams...))
	if err != nil {
		return nil, "", err
	}
	h := sha256.New()
	h.Write([]byte(obs.PrometheusText(merged)))
	h.Write(spans)
	return merged, hex.EncodeToString(h.Sum(nil)), nil
}

// digest is the sim_digest: SHA-256 over the virtual results and the
// obs export's sum.
func digest(v *virtual, obsSum string) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(b)
	h.Write([]byte(obsSum))
	return hex.EncodeToString(h.Sum(nil)), nil
}
