package experiments

import (
	"fmt"
	"strings"

	"prism/internal/cluster"
	"prism/internal/obs"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/stats"
)

// ClusterConfig sizes the datacenter experiment.
type ClusterConfig struct {
	// Hosts / Containers set the cluster scale.
	Hosts      int
	Containers int
	// Placements lists the compared policies (empty = all three).
	Placements []cluster.Placement
}

// DefaultClusterConfig is the paper-scale point the golden fixtures pin:
// 16 hosts in 2 racks, 1000 containers.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{Hosts: 16, Containers: 1000, Placements: cluster.Placements}
}

// withDefaults fills cc's unset fields from def.
func (cc ClusterConfig) withDefaults(def ClusterConfig) ClusterConfig {
	if cc.Hosts <= 0 {
		cc.Hosts = def.Hosts
	}
	if cc.Containers <= 0 {
		cc.Containers = def.Containers
	}
	if len(cc.Placements) == 0 {
		cc.Placements = def.Placements
	}
	return cc
}

// Config is the experiment cluster under one placement policy:
// clusterSpecs's workload on PRISM-sync hosts behind the ingress
// admission point the cluster and failover grids share.
func (cc ClusterConfig) Config(p Params, pol cluster.Placement) cluster.Config {
	return cluster.Config{
		Hosts:     cc.Hosts,
		Placement: pol,
		Seed:      p.Seed,
		Host:      BaseSpec(p, prio.ModeSync),
		Specs:     clusterSpecs(p, cc.Hosts, cc.Containers),
		// Slightly below the busiest hosts' offered ingress, so the
		// bucket visibly shaves best-effort bursts while the reserve
		// keeps prioritized flows untouched.
		Admission: &cluster.Admission{Rate: 55_000, Burst: 96, HiReserve: 0.25},
		Warmup:    p.Warmup,
		EchoCost:  p.EchoCost,
		SinkCost:  p.SinkCost,
	}
}

// clusterSpecs builds the experiment workload: one flood sink per host
// (the cross-host background load), every ninth remaining container a
// high-priority echo at p.HighRate, the rest best-effort echoes at a
// fifth of that. Ingress hosts are a deterministic spread, so most flows
// cross the fabric and many cross racks.
func clusterSpecs(p Params, hosts, containers int) []cluster.ContainerSpec {
	specs := make([]cluster.ContainerSpec, 0, containers)
	for i := 0; i < containers; i++ {
		ingress := (i*7 + 3) % hosts
		switch {
		case i < hosts:
			specs = append(specs, cluster.ContainerSpec{
				Name: fmt.Sprintf("bg%04d", i), Flood: true,
				Rate: p.BGRate / 8, Ingress: ingress,
			})
		case (i-hosts)%9 == 0:
			specs = append(specs, cluster.ContainerSpec{
				Name: fmt.Sprintf("hi%04d", i), Hi: true,
				Rate: p.HighRate, Ingress: ingress,
			})
		default:
			specs = append(specs, cluster.ContainerSpec{
				Name: fmt.Sprintf("lo%04d", i),
				Rate: p.HighRate / 5, Ingress: ingress,
			})
		}
	}
	return specs
}

// ClusterRow is one placement policy's measurement.
type ClusterRow struct {
	Placement string

	// Hi / Lo summarize the prioritized and best-effort echo latencies
	// (merged across all flows of the class).
	Hi stats.Summary
	Lo stats.Summary

	HiSent, HiRecv uint64
	LoSent, LoRecv uint64
	FloodRecv      uint64

	// AdmitDenied counts ingress token-bucket refusals; FabricDrops the
	// switches' discards, FabricShed the best-effort victims evicted for
	// high-priority frames.
	AdmitDenied uint64
	FabricDrops uint64
	FabricShed  uint64

	FabricUtilMax  float64
	FabricUtilMean float64

	// Windows is the par scheduler's barrier count — identical for every
	// worker count by construction.
	Windows uint64

	// MetricsSHA / SpansSHA digest the merged observability streams of
	// every host and switch pipeline; the determinism gates compare them
	// across worker counts.
	MetricsSHA string
	SpansSHA   string
}

// ClusterResult is the datacenter experiment: hi/lo tail latency and
// fabric load per placement policy.
type ClusterResult struct {
	Seed       uint64
	Hosts      int
	Containers int
	Racks      int
	Rows       []ClusterRow
}

// Cluster runs the multi-host datacenter experiment: the same workload
// placed by each policy in turn, each run a full cluster simulation over
// p.Workers shard workers (bit-identical for any worker count). It
// errors when a policy cannot build or run the cluster, e.g. more
// containers than the hosts can hold.
func Cluster(p Params, cc ClusterConfig) (ClusterResult, error) {
	cc = cc.withDefaults(DefaultClusterConfig())
	res := ClusterResult{Seed: p.Seed, Hosts: cc.Hosts, Containers: cc.Containers}
	for _, pol := range cc.Placements {
		row := ClusterRow{Placement: pol.String()}
		var err error
		row.MetricsSHA, row.SpansSHA, err = RunCluster(p, cc.Config(p, pol), ClusterRun{
			Label:  "cluster/" + pol.String(),
			Strict: true,
			Measure: func(c *cluster.Cluster) {
				res.Racks = c.Cfg.Fabric.Racks
				row.Windows = c.Group.Windows
				hiH, loH := c.LatencyHists()
				row.Hi, row.Lo = hiH.Summarize(), loH.Summarize()
				row.HiSent, row.HiRecv, row.LoSent, row.LoRecv, _, row.FloodRecv = c.FlowCounts()
				row.AdmitDenied = c.AdmissionDenied()
				row.FabricDrops, row.FabricShed = c.FabricDrops()
				row.FabricUtilMax, row.FabricUtilMean = c.FabricUtilization(c.Horizon())
			},
		})
		if err != nil {
			return ClusterResult{}, fmt.Errorf("experiments: cluster/%s: %w", pol, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ClusterRun is what one cluster simulation brings to RunCluster beyond
// its config.
type ClusterRun struct {
	// Label names the run on the live operator surface.
	Label string
	// Strict demands zero in-flight state at the final conservation
	// check: the experiments always ask for it, scenarios only when the
	// file declares conservation.
	Strict bool
	// Prepare, when set, hooks the built cluster before it runs.
	Prepare func(c *cluster.Cluster)
	// Measure reads the cluster at the measured horizon, after Run and
	// before Settle extends the clocks.
	Measure func(c *cluster.Cluster)
}

// RunCluster is the one pass every cluster run goes through: build cfg,
// attach the live surface when p.Live is listening, run p.Duration over
// p.Workers, measure, digest the merged observability streams, detach,
// settle, and check cluster-wide conservation. It returns the metrics
// and span digests.
func RunCluster(p Params, cfg cluster.Config, run ClusterRun) (metricsSHA, spansSHA string, err error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return "", "", err
	}

	// Frame taps feed /capture (classified by the cluster's flow table),
	// and a virtual-time checkpoint streams merged metric snapshots,
	// trace deltas, per-port fabric load and the par runtime's window
	// counters. All hooks are pure observation at quiescent points — the
	// digests stay bit-identical either way.
	if lv := p.Live; lv != nil {
		lv.SetRun(run.Label, cfg.Warmup+p.Duration)
		lv.SetClassifier(c.ClassifyFrame)
		c.SetTap(lv.Tap)
		streamer := obs.NewStreamer(lv, c.Pipes()...)
		c.SetCheckpoint(lv.Interval, func(at sim.Time) {
			lv.PublishFabric(c.FabricPortUtil(at))
			lv.PublishPar(c.Group.Windows, c.Group.ShardRuns)
			streamer.Checkpoint(at)
		})
	}
	if run.Prepare != nil {
		run.Prepare(c)
	}
	if err := c.Run(p.Duration, p.Workers); err != nil {
		return "", "", err
	}
	run.Measure(c)
	// Digest the full observability surface at the measured horizon, in
	// shard order.
	if metricsSHA, spansSHA, err = obs.Digests(c.Pipes()...); err != nil {
		return "", "", err
	}

	// Stop observing before Settle extends the clocks past the measured
	// horizon: the final checkpoint (flushed at the horizon inside Run)
	// is the last snapshot the live surface serves for this run.
	if p.Live != nil {
		c.SetCheckpoint(0, nil)
		c.SetTap(nil)
	}
	// Settle drains in-flight frames, then the cluster check must close
	// every ledger, including the crash, epoch-drop and per-migration
	// terms of a recovered run.
	if err := c.Settle(0, p.Workers); err != nil {
		return "", "", err
	}
	if err := c.CheckInvariants(run.Strict); err != nil {
		return "", "", fmt.Errorf("conservation check failed: %w", err)
	}
	return metricsSHA, spansSHA, nil
}

// String renders the per-policy table.
func (r ClusterResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster — %d hosts / %d racks / %d containers, PRISM-sync hosts (seed %d)\n",
		r.Hosts, r.Racks, r.Containers, r.Seed)
	fmt.Fprintf(&b, "%-9s %10s %10s %10s %10s %8s %8s %9s %8s %7s %13s %13s\n",
		"placement", "hi p50(µs)", "hi p99(µs)", "lo p50(µs)", "lo p99(µs)",
		"hi recv", "lo recv", "admit-rej", "fab-drop", "util", "metrics", "spans")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s %10.1f %10.1f %10.1f %10.1f %8d %8d %9d %8d %3.0f%%/%2.0f%% %13s %13s\n",
			row.Placement,
			row.Hi.P50.Micros(), row.Hi.P99.Micros(),
			row.Lo.P50.Micros(), row.Lo.P99.Micros(),
			row.HiRecv, row.LoRecv, row.AdmitDenied, row.FabricDrops,
			100*row.FabricUtilMax, 100*row.FabricUtilMean,
			row.MetricsSHA[:12], row.SpansSHA[:12])
	}
	return b.String()
}
