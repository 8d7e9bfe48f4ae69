// Package prism_test holds the top-level benchmark harness: one benchmark
// per table/figure of the paper's evaluation (§V), plus ablations of the
// design choices called out in DESIGN.md. Each benchmark runs the full
// experiment at a reduced duration and reports the figure's headline
// quantities as custom metrics, so
//
//	go test -bench=Fig -benchmem
//
// regenerates the whole evaluation in miniature; cmd/prismsim runs the
// full-length versions.
package prism_test

import (
	"runtime"
	"testing"

	"prism"
	"prism/internal/cluster"
	"prism/internal/experiments"
	"prism/internal/obs"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/traffic"
)

// benchParams shortens runs so each b.N iteration stays subsecond.
func benchParams() experiments.Params {
	p := experiments.Default()
	p.Warmup = 20 * sim.Millisecond
	p.Duration = 150 * sim.Millisecond
	return p
}

// BenchmarkFig03 — latency of the vanilla overlay with and without
// background traffic (busy/idle ratios as metrics).
func BenchmarkFig03(b *testing.B) {
	p := benchParams()
	var res experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig3(p)
	}
	record(b, runPkts(p, 0)+runPkts(p, p.BGRate), map[string]float64{
		"busy/idle-p50": res.MedianRatio,
		"busy/idle-p99": res.P99Ratio,
		"busy-mean-µs":  res.Busy.Mean.Micros(),
	})
}

// BenchmarkFig06 — poll-order trace capture (device order booleans).
func BenchmarkFig06(b *testing.B) {
	p := benchParams()
	var res experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig6(p)
	}
	bool01 := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	record(b, 2*runPkts(p, p.BGRate), map[string]float64{
		"vanilla-interleaved": bool01(res.VanillaInterleaved),
		"prism-streamlined":   bool01(res.PrismStreamlined),
	})
}

// BenchmarkFig08 — per-mode latency and single-core max throughput.
func BenchmarkFig08(b *testing.B) {
	p := benchParams()
	var res experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig8(p)
	}
	metrics := map[string]float64{}
	for _, row := range res.Rows {
		metrics[row.Mode.String()+"-kpps"] = row.MaxKpps
		metrics[row.Mode.String()+"-p50µs"] = row.Latency.P50.Micros()
	}
	record(b, 3*runPkts(p, p.LoadRate), metrics)
}

// BenchmarkFig09 — overlay priority differentiation under background load.
func BenchmarkFig09(b *testing.B) {
	p := benchParams()
	var res experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig9(p)
	}
	record(b, runPkts(p, 0)+3*runPkts(p, p.BGRate), map[string]float64{
		"sync-avg-cut-%":      100 * res.Improvement(prio.ModeSync, experiments.MeanOf),
		"sync-p99-cut-%":      100 * res.Improvement(prio.ModeSync, experiments.P99Of),
		"sync-kern-avg-cut-%": 100 * res.KernelImprovement(prio.ModeSync, experiments.MeanOf),
		"batch-avg-cut-%":     100 * res.Improvement(prio.ModeBatch, experiments.MeanOf),
	})
}

// BenchmarkFig10 — the host-network null result.
func BenchmarkFig10(b *testing.B) {
	p := benchParams()
	var res experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig10(p)
	}
	record(b, runPkts(p, 0)+3*runPkts(p, p.BGRate), map[string]float64{
		"sync-avg-cut-%": 100 * res.Improvement(prio.ModeSync, experiments.MeanOf),
	})
}

// BenchmarkFig11 — the background-load sweep (three representative loads).
func BenchmarkFig11(b *testing.B) {
	p := benchParams()
	loads := []float64{10_000, 150_000, 300_000}
	var res experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig11(p, loads)
	}
	metrics := map[string]float64{}
	for _, s := range res.Series {
		last := s.Points[len(s.Points)-1]
		metrics[s.Mode.String()+"-avg-µs@300k"] = last.Avg.Micros()
	}
	record(b, fig11Pkts(p, loads), metrics)
}

// BenchmarkFig12 — memcached/memaslap.
func BenchmarkFig12(b *testing.B) {
	p := benchParams()
	var res experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig12(p)
	}
	vanBusy, _ := res.Find(prio.ModeVanilla, true)
	synBusy, _ := res.Find(prio.ModeSync, true)
	vanIdle, _ := res.Find(prio.ModeVanilla, false)
	metrics := map[string]float64{}
	if vanIdle.KOps > 0 {
		metrics["vanilla-busy/idle-tput"] = vanBusy.KOps / vanIdle.KOps
	}
	if vanBusy.KOps > 0 {
		metrics["sync/vanilla-busy-tput"] = synBusy.KOps / vanBusy.KOps
	}
	record(b, 0, metrics)
}

// BenchmarkFig13 — nginx/wrk2.
func BenchmarkFig13(b *testing.B) {
	p := benchParams()
	var res experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig13(p)
	}
	vanBusy, _ := res.Find(prio.ModeVanilla, true)
	metrics := map[string]float64{}
	for _, mode := range []prio.Mode{prio.ModeBatch, prio.ModeSync} {
		row, _ := res.Find(mode, true)
		if vanBusy.Latency.Mean > 0 {
			metrics[mode.String()+"-avg-cut-%"] = 100 * (1 - float64(row.Latency.Mean)/float64(vanBusy.Latency.Mean))
		}
	}
	record(b, 0, metrics)
}

// ---------------------------------------------------------------------------
// Ablations: the design choices DESIGN.md calls out.

// ablate runs the Fig. 9 rig under a cost/config mutation and reports the
// sync-mode improvement.
func ablate(b *testing.B, mutate func(*experiments.Params)) {
	p := benchParams()
	if mutate != nil {
		mutate(&p)
	}
	var res experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig9(p)
	}
	record(b, runPkts(p, 0)+3*runPkts(p, p.BGRate), map[string]float64{
		"sync-avg-cut-%":  100 * res.Improvement(prio.ModeSync, experiments.MeanOf),
		"sync-kern-cut-%": 100 * res.KernelImprovement(prio.ModeSync, experiments.MeanOf),
	})
}

// BenchmarkAblationBurst sweeps background burstiness: PRISM's advantage
// shrinks as the stage-1 FIFO share of the delay grows.
func BenchmarkAblationBurst(b *testing.B) {
	for _, burst := range []int{32, 96, 192} {
		burst := burst
		b.Run(benchName("burst", burst), func(b *testing.B) {
			ablate(b, func(p *experiments.Params) { p.BGBurst = burst })
		})
	}
}

// BenchmarkAblationLoad sweeps the background rate.
func BenchmarkAblationLoad(b *testing.B) {
	for _, rate := range []float64{150_000, 300_000, 350_000} {
		rate := rate
		b.Run(benchName("kpps", int(rate/1000)), func(b *testing.B) {
			ablate(b, func(p *experiments.Params) { p.BGRate = rate })
		})
	}
}

// BenchmarkAblationRawPipeline measures the raw simulator event rate for a
// saturated three-stage pipeline — the engine-level cost of the framework.
func BenchmarkAblationRawPipeline(b *testing.B) {
	for _, mode := range []prio.Mode{prio.ModeVanilla, prio.ModeBatch, prio.ModeSync} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			sim := prism.NewSimulation(prism.WithMode(mode), prism.WithSeed(3))
			srv := sim.AddContainer("sink")
			sim.MarkHighPriority(srv.IP, 11111)
			fl := sim.NewBackgroundFlood(srv, 11111, 600_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Run(1_000_000) // 1ms of virtual time per iteration
			}
			b.StopTimer()
			if fl.Delivered() == 0 {
				b.Fatal("pipeline delivered nothing")
			}
			record(b, float64(fl.Delivered())/float64(b.N), nil)
		})
	}
}

// BenchmarkSoftirqPoll measures the unified softirq runtime's poll loop
// under a saturating flood of prioritized traffic, one sub-benchmark per
// registered poll policy — vanilla and prism exercise the paper's two
// engines through the shared runtime; headonly and dualq the ablations.
// The per-op cost is the runtime+policy overhead of simulating ~1ms of
// saturated receive; pkts_per_sec is the simulator's processing rate.
func BenchmarkSoftirqPoll(b *testing.B) {
	variants := []struct {
		name, policy string
		mode         prism.Mode
	}{
		{"vanilla", "vanilla", prism.ModeVanilla},
		{"prism-batch", "prism", prism.ModeBatch},
		{"prism-sync", "prism", prism.ModeSync},
		{"headonly", "headonly", prism.ModeBatch},
		{"dualq", "dualq", prism.ModeBatch},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			sim := prism.NewSimulation(prism.WithMode(v.mode),
				prism.WithPolicy(v.policy), prism.WithSeed(3))
			srv := sim.AddContainer("sink")
			sim.MarkHighPriority(srv.IP, 11111)
			fl := sim.NewBackgroundFlood(srv, 11111, 600_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Run(1_000_000) // 1ms of virtual time per iteration
			}
			b.StopTimer()
			if fl.Delivered() == 0 {
				b.Fatal("poll loop delivered nothing")
			}
			record(b, float64(fl.Delivered())/float64(b.N), nil)
		})
	}
}

// BenchmarkObsOverhead prices leaving observability on: the prism-sync
// flood of BenchmarkSoftirqPoll with no pipeline ("off") and with an
// obs.Pipeline recording every span, delivery and drop of the receive path
// ("on"). Each iteration simulates 1ms; "on" reports its ns/op as a
// multiple of "off"'s as on/off-ns-ratio.
func BenchmarkObsOverhead(b *testing.B) {
	var offNs float64
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var pipe *obs.Pipeline
			if on {
				pipe = obs.NewPipeline("bench")
			}
			tb, fl := newFloodRig(prio.ModeSync, pipe)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runFor(tb, sim.Millisecond)
			}
			b.StopTimer()
			if fl.Delivered.Count() == 0 {
				b.Fatal("flood delivered nothing")
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			var metrics map[string]float64
			if !on {
				offNs = ns
			} else if offNs > 0 {
				metrics = map[string]float64{"on/off-ns-ratio": ns / offNs}
			}
			record(b, float64(fl.Delivered.Count())/float64(b.N), metrics)
		})
	}
}

// BenchmarkAblationGRO compares TCP background cost with and without GRO.
func BenchmarkAblationGRO(b *testing.B) {
	for _, gro := range []bool{true, false} {
		gro := gro
		name := "gro-on"
		if !gro {
			name = "gro-off"
		}
		b.Run(name, func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				util = tcpBGUtil(gro)
			}
			record(b, 0, map[string]float64{"proc-core-util-%": 100 * util})
		})
	}
}

// tcpBGUtil measures processing-core utilization under a TCP bulk
// background, built on internals (the facade keeps the public API small).
func tcpBGUtil(gro bool) float64 {
	eng := sim.NewEngine(3)
	host := newBenchHost(eng, gro)
	ctr := host.AddContainer("bg")
	st := traffic.NewTCPStream(eng, host, ctr, benchClient(1), 5201, 30_000)
	if err := st.InstallSink(600); err != nil {
		panic(err)
	}
	host.ProcCore.ResetWindow(0)
	st.Start(0)
	if err := eng.Run(100 * sim.Millisecond); err != nil {
		panic(err)
	}
	return host.ProcCore.Utilization(eng.Now())
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "-0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "-" + string(buf[i:])
}

// ---------------------------------------------------------------------------
// BenchmarkEventQueue measures the engine's event queue — the hierarchical
// timing wheel — in isolation, one dispatched event per op. The four
// workloads bracket what the datapath generates: churn is the softirq
// steady state (a few hundred outstanding events, microsecond-scale
// delays), cancel-rearm is the kernel-timer pattern (most timers cancelled
// and re-armed before firing), many-engines is churn spread over a
// cluster's worth of engines, and cascade-far forces events through the
// coarse wheels and the overflow level. Gated by cmd/benchgate alongside
// the datapath benchmarks; pkts_per_sec here means events per second.

// eqChurn re-arms itself with an exponential delay on every dispatch,
// keeping a fixed population of outstanding events. eqChurnFire is the
// allocation-free CallAt trampoline.
type eqChurn struct {
	eng  *sim.Engine
	mean sim.Time
}

func eqChurnFire(now sim.Time, a1, _ any) {
	c := a1.(*eqChurn)
	c.eng.CallAt(now+c.eng.RNG().ExpDuration(c.mean), eqChurnFire, a1, nil)
}

func BenchmarkEventQueue(b *testing.B) {
	b.Run("churn-256", func(b *testing.B) {
		eng := sim.NewEngine(7)
		c := &eqChurn{eng: eng, mean: sim.Microsecond}
		for i := 0; i < 256; i++ {
			eng.CallAt(eng.RNG().ExpDuration(c.mean), eqChurnFire, c, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
		b.StopTimer()
		record(b, 1, nil)
	})

	b.Run("cancel-rearm", func(b *testing.B) {
		eng := sim.NewEngine(7)
		const armed = 256
		handles := make([]*sim.Event, armed)
		nop := func() {}
		arm := func(i int) {
			handles[i] = eng.At(eng.Now()+10*sim.Microsecond+sim.Time(eng.RNG().Intn(4096)), nop)
		}
		for i := range handles {
			arm(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := eng.RNG().Intn(armed)
			eng.Cancel(handles[j])
			arm(j)
			if i&1 == 0 {
				eng.Step()
			}
		}
		b.StopTimer()
		record(b, 1, nil)
	})

	// many-engines steps 19 engines round-robin, 64 pending events each —
	// the cluster-spread shard count. Each dispatch touches a different
	// engine's wheel, which is the footprint the single-engine cases hide.
	b.Run("many-engines", func(b *testing.B) {
		const engines, pending = 19, 64
		engs := make([]*sim.Engine, engines)
		for i := range engs {
			eng := sim.NewEngine(uint64(7 + i))
			c := &eqChurn{eng: eng, mean: sim.Microsecond}
			for j := 0; j < pending; j++ {
				eng.CallAt(eng.RNG().ExpDuration(c.mean), eqChurnFire, c, nil)
			}
			engs[i] = eng
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			engs[i%engines].Step()
		}
		b.StopTimer()
		record(b, 1, nil)
	})

	b.Run("cascade-far", func(b *testing.B) {
		eng := sim.NewEngine(7)
		c := &eqChurn{eng: eng, mean: 4 * sim.Millisecond}
		for i := 0; i < 256; i++ {
			eng.CallAt(eng.RNG().ExpDuration(c.mean), eqChurnFire, c, nil)
		}
		// A sparse population of far-future events keeps the coarse
		// wheels and the overflow level populated across the run.
		far := &eqChurn{eng: eng, mean: 300 * sim.Second}
		for i := 0; i < 16; i++ {
			eng.CallAt(eng.RNG().ExpDuration(far.mean), eqChurnFire, far, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
		b.StopTimer()
		record(b, 1, nil)
	})
}

// BenchmarkExtDriver evaluates the §VII-1 extension: driver-level priority
// rings, which remove the stage-1 FIFO limitation.
func BenchmarkExtDriver(b *testing.B) {
	p := benchParams()
	var res experiments.ExtDriverResult
	for i := 0; i < b.N; i++ {
		res = experiments.ExtDriver(p)
	}
	record(b, 0, map[string]float64{
		"overlay-driver-mean-µs": res.OverlayDriver.Mean.Micros(),
		"overlay-stock-mean-µs":  res.OverlayStock.Mean.Micros(),
		"host-driver-mean-µs":    res.HostDriver.Mean.Micros(),
	})
}

// BenchmarkParallelScaling measures the parallel sweep driver on a
// representative multi-point workload: the Fig. 11 mode×load grid (six
// independent simulations) at 1, 2, and 4 workers. speedup-vs-1w is
// wall-clock sequential time over this worker count's time; the
// determinism tests guarantee the results are identical at every point,
// so available cores convert directly into speedup (a single-CPU host
// reports ~1.0 by construction — see BENCH_results.json notes).
func BenchmarkParallelScaling(b *testing.B) {
	loads := []float64{10_000, 150_000, 300_000}
	var seqNs float64
	for _, w := range []int{1, 2, 4} {
		w := w
		b.Run(benchName("workers", w), func(b *testing.B) {
			p := benchParams()
			p.Workers = w
			var res experiments.Fig11Result
			for i := 0; i < b.N; i++ {
				res = experiments.Fig11(p, loads)
			}
			if len(res.Series) == 0 || len(res.Series[0].Points) == 0 {
				b.Fatal("empty sweep")
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if w == 1 {
				seqNs = ns
			}
			metrics := map[string]float64{
				"sweep-points": float64(len(res.Series) * len(res.Series[0].Points)),
			}
			if w > 1 && seqNs > 0 && ns > 0 {
				metrics["speedup-vs-1w"] = seqNs / ns
			}
			record(b, fig11Pkts(p, loads), metrics)
		})
	}
}

// BenchmarkClusterSweep — the multi-host datacenter experiment at reduced
// scale: 8 hosts with the full ToR fabric and admission control plane,
// 200 containers under priority-aware placement. One op is one complete
// cluster simulation (build, run, settle, invariant check).
func BenchmarkClusterSweep(b *testing.B) {
	p := benchParams()
	cc := experiments.ClusterConfig{
		Hosts:      8,
		Containers: 200,
		Placements: []cluster.Placement{cluster.PlacePriority},
	}
	var res experiments.ClusterResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiments.Cluster(p, cc); err != nil {
			b.Fatal(err)
		}
	}
	row := res.Rows[0]
	record(b, float64(2*(row.HiSent+row.LoSent))+float64(row.FloodRecv), map[string]float64{
		"hi-p99-µs":       row.Hi.P99.Micros(),
		"lo-p99-µs":       row.Lo.P99.Micros(),
		"fabric-util-max": row.FabricUtilMax,
		"admit-denied":    float64(row.AdmitDenied),
	})
}

// BenchmarkClusterScaling gates what the conservative runtime buys on
// the paper-scale cluster point — 16 hosts in 2 racks, 1000 containers,
// spread placement, admission on — at 1 and 2 workers. One op is one
// cluster run (warmup plus 100ms); ns/op times Cluster.Run alone, not
// the build or the settle. speedup-vs-1w is the 1-worker time over this
// worker count's, reported with GOMAXPROCS since cores bound it;
// windows is the barrier count (the same at every worker count) and
// allocs/frame the heap allocations per host wire frame during the run.
func BenchmarkClusterScaling(b *testing.B) {
	p := benchParams()
	p.Warmup, p.Duration = 10*sim.Millisecond, 100*sim.Millisecond
	cc := experiments.DefaultClusterConfig()
	var seqNs float64
	for _, w := range []int{1, 2} {
		b.Run(benchName("workers", w), func(b *testing.B) {
			p.Workers = w
			var (
				before, after runtime.MemStats
				windows       uint64
				frames        uint64
			)
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				_, _, err := experiments.RunCluster(p, cc.Config(p, cluster.PlaceSpread), experiments.ClusterRun{
					Label:  "cluster-scaling",
					Strict: true,
					Prepare: func(*cluster.Cluster) {
						runtime.ReadMemStats(&before)
						b.StartTimer()
					},
					Measure: func(c *cluster.Cluster) {
						b.StopTimer()
						runtime.ReadMemStats(&after)
						windows, frames = c.Group.Windows, 0
						for _, n := range c.Nodes {
							frames += n.Host.RxWire
						}
					},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if w == 1 {
				seqNs = ns
			}
			metrics := map[string]float64{
				"windows":      float64(windows),
				"allocs/frame": float64(after.Mallocs-before.Mallocs) / float64(frames),
				"GOMAXPROCS":   float64(runtime.GOMAXPROCS(0)),
			}
			if w > 1 && seqNs > 0 && ns > 0 {
				metrics["speedup-vs-1w"] = seqNs / ns
			}
			record(b, float64(frames), metrics)
		})
	}
}
