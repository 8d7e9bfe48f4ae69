// Command prismsim runs the paper's experiments and prints the tables and
// series each figure reports.
//
// Usage:
//
//	prismsim -exp fig3          # one experiment
//	prismsim -exp all           # everything (takes a few minutes)
//	prismsim -exp fig9 -duration 2s -bg 250000 -seed 7
//	prismsim -exp fig3 -cdf     # also dump CDF points for plotting
//	prismsim -exp fig11 -parallel 4   # fan the sweep's points over 4 workers
//	prismsim -exp stages -metrics-out m.prom -trace-out t.json
//	prismsim -exp policies            # softirq poll-policy ablation ladder
//	prismsim -exp policies -policy headonly   # one policy variant only
//	prismsim -exp cluster -hosts 16 -containers 1000   # datacenter run
//	prismsim -exp cluster -listen :8080    # + live operator surface
//	prismsim -exp failover                 # kill-and-recover grid
//	prismsim -scenario scenarios/incast.yaml   # declarative scenario file
//
// -scenario runs a declarative scenario file (YAML subset or JSON, see
// scenarios/ and internal/scenario) instead of -exp: the file picks the
// topology, traffic mix, fault timeline and SLO assertions, and the run
// exits non-zero when an assertion fails (1) or the file is malformed
// (2, with a path-qualified error). -parallel still applies; every other
// tuning flag comes from the file.
//
// -parallel N runs multi-point experiments (fig9, fig10, fig11, scaling,
// and the sweeps) with up to N parameter points in flight, each on its own
// engine (internal/par), and shards the cluster experiment's hosts and
// switches over N workers. Results are bit-identical for every N.
//
// -hosts, -containers and -placement shape the cluster and failover
// experiments. A shape they cannot build or recover (more containers
// than the hosts hold, no survivor with room for a dead host's
// containers) exits 2 with a one-line error, like a malformed scenario.
//
// -metrics-out and -trace-out run the instrumented stages experiment (or
// accompany -exp stages) and export its observability data: metrics as a
// JSON snapshot (path ending in .json) or Prometheus text exposition
// (any other extension), and the span streams as Chrome trace-event JSON
// loadable in Perfetto / chrome://tracing.
//
// -listen addr serves the live operator surface while experiments run:
// /metrics (Prometheus exposition of the latest virtual-time checkpoint),
// /capture (streaming pcap with container/priority selectors — pipe it
// into Wireshark), /trace (Chrome trace events as NDJSON), and /status
// (SSE run progress). The cluster and chaos experiments publish into it;
// attaching the surface never changes results — the determinism gates
// re-derive the golden digests with it enabled. -checkpoint sets the
// snapshot cadence in virtual time; -linger keeps the server answering
// for a real-time grace period after the runs finish.
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"time"

	"prism/internal/cluster"
	"prism/internal/experiments"
	"prism/internal/live"
	"prism/internal/obs"
	"prism/internal/scenario"
	"prism/internal/sim"
	"prism/internal/stats"
)

// appCtx carries the parsed flags into the experiment runners.
type appCtx struct {
	p experiments.Params

	cdf        bool
	policy     string
	faultrate  float64
	hosts      int
	containers int
	placement  string
	metricsOut string
	traceOut   string
}

// experiment is one registry entry: the -exp name and its runner. The
// usage string, validation, and dispatch all derive from the registry, so
// adding an experiment is one entry here and nothing else.
type experiment struct {
	name string
	run  func(a *appCtx)
}

// registry lists every experiment in presentation order.
var registry = []experiment{
	{"fig3", func(a *appCtx) {
		r := experiments.Fig3(a.p)
		fmt.Println(r)
		if a.cdf {
			fmt.Println("idle CDF (µs, fraction):")
			fmt.Print(stats.FormatCDF(r.IdleCDF))
			fmt.Println("busy CDF (µs, fraction):")
			fmt.Print(stats.FormatCDF(r.BusyCDF))
		}
	}},
	{"fig6", func(a *appCtx) { fmt.Println(experiments.Fig6(a.p)) }},
	{"fig8", func(a *appCtx) { fmt.Println(experiments.Fig8(a.p)) }},
	{"fig9", func(a *appCtx) {
		r := experiments.Fig9(a.p)
		fmt.Println(r)
		if a.cdf {
			fmt.Println("idle CDF (µs, fraction):")
			fmt.Print(stats.FormatCDF(r.IdleCDF))
			for _, row := range r.Rows {
				fmt.Printf("%s busy CDF (µs, fraction):\n", row.Mode)
				fmt.Print(stats.FormatCDF(row.BusyCDF))
			}
		}
	}},
	{"fig10", func(a *appCtx) { fmt.Println(experiments.Fig10(a.p)) }},
	{"fig11", func(a *appCtx) { fmt.Println(experiments.Fig11(a.p, nil)) }},
	{"fig12", func(a *appCtx) { fmt.Println(experiments.Fig12(a.p)) }},
	{"fig13", func(a *appCtx) { fmt.Println(experiments.Fig13(a.p)) }},
	{"extdriver", func(a *appCtx) { fmt.Println(experiments.ExtDriver(a.p)) }},
	{"policies", func(a *appCtx) {
		r := experiments.Policies(a.p, experiments.PolicyByName(a.policy))
		fmt.Println(r)
		if a.cdf {
			for _, row := range r.Rows {
				fmt.Printf("%s busy CDF (µs, fraction):\n", row.Variant.Label())
				fmt.Print(stats.FormatCDF(row.BusyCDF))
			}
		}
	}},
	{"chaos", func(a *appCtx) {
		fmt.Println(experiments.Chaos(a.p, nil, experiments.ChaosRates(a.faultrate)))
	}},
	{"batchsweep", func(a *appCtx) { fmt.Println(experiments.AblationBatch(a.p, nil)) }},
	{"scaling", func(a *appCtx) { fmt.Println(experiments.Scaling(a.p, nil)) }},
	{"cluster", func(a *appCtx) {
		r, err := experiments.Cluster(a.p, a.clusterConfig(experiments.DefaultClusterConfig()))
		if err != nil {
			reject(err)
		}
		fmt.Println(r)
	}},
	{"failover", func(a *appCtx) {
		fc := experiments.DefaultFailoverConfig()
		fc.ClusterConfig = a.clusterConfig(fc.ClusterConfig)
		r, err := experiments.Failover(a.p, fc)
		if err != nil {
			reject(err)
		}
		fmt.Println(r)
	}},
	{"stages", func(a *appCtx) {
		r := experiments.Stages(a.p)
		fmt.Println(r)
		if a.metricsOut != "" {
			if err := writeMetrics(a.metricsOut, r.MergedRegistry()); err != nil {
				fatal(err)
			}
			fmt.Printf("metrics written to %s\n", a.metricsOut)
		}
		if a.traceOut != "" {
			if err := writeTrace(a.traceOut, r.TraceProcesses()); err != nil {
				fatal(err)
			}
			fmt.Printf("trace written to %s (load in Perfetto / chrome://tracing)\n", a.traceOut)
		}
	}},
}

// clusterConfig applies the -hosts, -containers and -placement flags to
// an experiment's default cluster shape.
func (a *appCtx) clusterConfig(cc experiments.ClusterConfig) experiments.ClusterConfig {
	if a.hosts > 0 {
		cc.Hosts = a.hosts
	}
	if a.containers > 0 {
		cc.Containers = a.containers
	}
	if a.placement != "" && a.placement != "all" {
		pol, err := cluster.ParsePlacement(a.placement)
		if err != nil {
			fatal(err)
		}
		cc.Placements = []cluster.Placement{pol}
	}
	return cc
}

// expNames renders the registry's names for the usage string.
func expNames() string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return strings.Join(names, "|")
}

// selectExperiments resolves the -exp value against the registry: a
// single name, or "all" for the whole list. Unknown names fail fast with
// the valid set.
func selectExperiments(name string) ([]experiment, error) {
	if name == "all" {
		return registry, nil
	}
	for _, e := range registry {
		if e.name == name {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s|all)", name, expNames())
}

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: "+expNames()+"|all")
		seed      = flag.Uint64("seed", 42, "simulation seed")
		duration  = flag.Duration("duration", time.Second, "measured duration (virtual time)")
		warmup    = flag.Duration("warmup", 100*time.Millisecond, "warmup (virtual time)")
		bg        = flag.Float64("bg", 300_000, "background rate (pps)")
		high      = flag.Float64("high", 1000, "high-priority flow rate (pps)")
		load      = flag.Float64("load", 270_000, "fig8 latency load (pps)")
		burst     = flag.Int("burst", 96, "background burst size (frames)")
		cdf       = flag.Bool("cdf", false, "dump CDF points for CDF figures")
		policy    = flag.String("policy", "all", "softirq poll policy for -exp policies: vanilla|dualq|headonly|prism|all")
		faultrate = flag.Float64("faultrate", 0.4, "chaos experiment's top fault intensity (the ladder is 0, r/4, r/2, r)")
		parallel  = flag.Int("parallel", 1, "worker count for multi-point and cluster experiments (deterministic: results identical for any value)")

		hosts      = flag.Int("hosts", 0, "cluster experiment host count (0 = default 16)")
		containers = flag.Int("containers", 0, "cluster experiment container count (0 = default 1000)")
		placement  = flag.String("placement", "all", "cluster placement policy: spread|pack|priority|all")

		metricsOut = flag.String("metrics-out", "", "write the stages experiment's metrics here (.json = JSON snapshot, otherwise Prometheus text)")
		traceOut   = flag.String("trace-out", "", "write the stages experiment's span streams here as Chrome trace-event JSON")

		scenarioFile = flag.String("scenario", "", "run a declarative scenario file (YAML/JSON, see scenarios/) instead of -exp")

		listen     = flag.String("listen", "", "serve the live operator surface (/metrics, /capture, /trace, /status) on this address while experiments run, e.g. :8080")
		checkpoint = flag.Duration("checkpoint", time.Duration(live.DefaultInterval), "live surface snapshot cadence (virtual time)")
		linger     = flag.Duration("linger", 0, "keep the live surface serving snapshots this long (real time) after the runs complete")
	)
	flag.Parse()

	if *scenarioFile != "" {
		if flagWasSet("exp") {
			fmt.Fprintln(os.Stderr, "prismsim: -scenario and -exp are mutually exclusive (the scenario file names its experiment or topology)")
			os.Exit(2)
		}
		runScenario(*scenarioFile, *parallel)
		return
	}

	// Export flags imply the instrumented experiment.
	if (*metricsOut != "" || *traceOut != "") && *exp == "all" {
		*exp = "stages"
	}

	selected, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}

	if *burst < 1 {
		reject(fmt.Errorf("-burst %d: must be >= 1", *burst))
	}
	// A ping-pong rate paces requests, so it has no interval at 0; a
	// background rate may be 0 (off). None may be infinite.
	for _, r := range []struct {
		flag     string
		v        float64
		positive bool
	}{{"high", *high, true}, {"load", *load, true}, {"bg", *bg, false}} {
		switch {
		case r.positive && !(r.v > 0):
			reject(fmt.Errorf("-%s %v: must be > 0", r.flag, r.v))
		case !(r.v >= 0):
			reject(fmt.Errorf("-%s %v: must be >= 0", r.flag, r.v))
		case math.IsInf(r.v, 1):
			reject(fmt.Errorf("-%s %v: must be finite", r.flag, r.v))
		}
	}

	p := experiments.Default()
	p.Seed = *seed
	p.Duration = sim.Duration(*duration)
	p.Warmup = sim.Duration(*warmup)
	p.BGRate = *bg
	p.HighRate = *high
	p.LoadRate = *load
	p.BGBurst = *burst
	p.Workers = *parallel

	if *listen != "" {
		lv := live.NewServer()
		if iv := sim.Duration(*checkpoint); iv > 0 {
			lv.Interval = iv
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fatal(err)
		}
		// The determinism gates diff stdout across runs; the bound address
		// (often an ephemeral port) goes to stderr.
		fmt.Fprintf(os.Stderr, "live: listening on http://%s\n", ln.Addr())
		go func() {
			if err := lv.Serve(ln); err != nil {
				fmt.Fprintln(os.Stderr, "live:", err)
			}
		}()
		p.Live = lv
	}

	a := &appCtx{
		p:          p,
		cdf:        *cdf,
		policy:     *policy,
		faultrate:  *faultrate,
		hosts:      *hosts,
		containers: *containers,
		placement:  *placement,
		metricsOut: *metricsOut,
		traceOut:   *traceOut,
	}
	for _, e := range selected {
		e.run(a)
	}

	if lv := a.p.Live; lv != nil {
		lv.Finish()
		if *linger > 0 {
			fmt.Fprintf(os.Stderr, "live: runs complete; serving snapshots for %v\n", *linger)
			time.Sleep(*linger)
		}
		lv.Close()
	}
}

// flagWasSet reports whether the user passed the named flag explicitly.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// runScenario loads, compiles and executes a scenario file. Malformed
// files exit 2 with the decoder's path-qualified error; a run whose SLO
// assertions fail exits 1 after printing the measured values.
func runScenario(path string, parallel int) {
	s, err := scenario.Load(path)
	if err != nil {
		reject(err)
	}
	plan, err := scenario.Compile(s)
	if err != nil {
		reject(fmt.Errorf("%s: %w", path, err))
	}
	// The file's workers field is the default; an explicit -parallel wins.
	if flagWasSet("parallel") {
		plan.Params.Workers = parallel
	}
	res, err := plan.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "prismsim: %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Print(res.String())
	if !res.Passed() {
		fmt.Fprintf(os.Stderr, "prismsim: %s: SLO assertions failed\n", path)
		os.Exit(1)
	}
}

// writeMetrics exports a registry: JSON snapshot for .json paths,
// Prometheus text exposition otherwise.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if len(path) > 5 && path[len(path)-5:] == ".json" {
		b, err := obs.MetricsJSON(reg)
		if err != nil {
			return err
		}
		_, err = f.Write(b)
		return err
	}
	return obs.WritePrometheus(f, reg)
}

// writeTrace exports span streams as Chrome trace-event JSON.
func writeTrace(path string, procs []obs.TraceProcess) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return obs.WriteChromeTrace(f, procs...)
}

// reject reports input the simulator cannot run — a malformed scenario
// file, a cluster too small for its containers — on one line and exits 2.
func reject(err error) {
	fmt.Fprintln(os.Stderr, "prismsim:", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
