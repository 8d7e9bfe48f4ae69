// Command perfbench is the simulator's benchmark: it runs one named
// workload through the public Go entry points for a given number of host
// seconds and prints end-to-end metrics (untraced run) or per-layer
// metrics (traced run), checking packet conservation and same-seed
// determinism as it goes. See README.md for the metrics and workloads.
//
//	perfbench --workload host-burst --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 when
// every check passed, 1 when a check failed, 2 on bad usage.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics: what a user of the simulator
// sees. The first three are host time and memory, the rest virtual.
var endToEnd = []metricDef{
	{"sim_pkts_per_s", "pkts/s"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"hi_p50_us", "us"},
	{"hi_p99_us", "us"},
	{"lo_kpps", "kpps"},
}

// boundaries are the spans timed around calls into the simulator; each
// becomes a "<name>_s" per-layer metric (median over traced episodes).
var boundaries = []string{
	"testbed.build", "cluster.build", "sim.warmup", "stats.summarize", "obs.export",
	"testbed.drain", "cluster.settle", "testbed.check", "cluster.check",
}

// virtualCounters are the exact per-layer counters an episode records.
var virtualCounters = []metricDef{
	{"par.windows", "count"},
	{"par.frames_per_window", "frames/window"},
	{"cluster.admit_denied", "count"},
	{"cluster.fabric_drops", "count"},
	{"cluster.fabric_shed", "count"},
	{"cluster.fabric_util_max", "frac"},
	{"cpu.proc_util", "frac"},
	{"nic.dma_pkts", "count"},
	{"nic.ring_drops", "count"},
	{"nic.gro_merged", "count"},
	{"nic.shed", "count"},
	{"softirq.delivered", "count"},
	{"softirq.dropped", "count"},
	{"socket.rcvbuf_drops", "count"},
	{"fault.injected", "count"},
	{"fault.watchdog_rescues", "count"},
}

// perLayer lists the traced run's metrics in print order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range append(append([]string{}, layers...), gcLayer, otherLayer) {
		defs = append(defs, metricDef{l + ".cpu_share", "frac"})
	}
	for _, b := range boundaries {
		defs = append(defs, metricDef{b + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"sim.slice_ms_p50", "ms"},
		metricDef{"sim.slice_ms_p99", "ms"},
		metricDef{"runtime.allocs_per_pkt", "allocs/pkt"},
		metricDef{"runtime.bytes_per_pkt", "B/pkt"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.peak_rss_mb", "MB"},
		metricDef{"cluster.heap_kb_per_container", "KB/container"},
	)
	defs = append(defs, virtualCounters...)
	for _, st := range obsStages {
		defs = append(defs,
			metricDef{"obs." + st + ".hi.wait_us_p99", "us"},
			metricDef{"obs." + st + ".hi.service_us_p50", "us"})
	}
	return append(defs,
		metricDef{"obs.fabric.hi.residency_us_p50", "us"},
		metricDef{"obs.fabric.hi.residency_us_p99", "us"},
		metricDef{"failed_frac", "frac"},
		metricDef{"trace.overhead_frac", "frac"})
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// envStamp identifies where and how a result was measured.
type envStamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	ParWorkers int    `json:"par_workers"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same virtual results")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for (at least the minimum episodes always run)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, CPU profile and span file")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its span file into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	env := stamp(w.name, *seed, *trace == 1)
	b, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "env %s\n", b)

	r := measure(w, env, time.Duration(*seconds*float64(time.Second)))
	for i, e := range r.eps {
		fmt.Fprintf(stdout, "episode %d traced=%v build %.4f s warmup %.4f s measure %.4f s %.0f pkts/s gc %d heap %.1f MB digest %.12s\n",
			i, e.traced, e.secs[e.buildName()], e.secs["sim.warmup"], e.measureS(), e.pktsPerS(), e.gcCycles, e.heapMB, e.digest)
	}
	// The benchmark's operation is an episode: it either reproduces the
	// seed's results and passes every conservation check, or it fails,
	// and a failed run counts every episode as failed. Requests the
	// simulated kernel drops or sheds are its output, not a failure of
	// the simulator; failed_frac reports them.
	res := result{Attempted: uint64(r.attempted), Metrics: map[string]value{}}
	if r.err == nil {
		r.err = report(stdout, r, env, *out, res.Metrics)
	}
	res.Correct = r.err == nil
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %v\n", r.err)
		res.Failed = res.Attempted
	}
	if b, err = json.Marshal(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints a successful run's digest, sample counts, failure share
// and metrics, fills m with the metrics, and writes a traced run's span
// file.
func report(stdout io.Writer, r runResult, env envStamp, out string, m map[string]value) error {
	v := r.eps[0].virt
	fmt.Fprintf(stdout, "sim_digest %s\n", r.eps[0].digest)
	fmt.Fprintf(stdout, "hi_samples %d beyond_p99 %d\n", v.HiSamples, v.HiBeyondP99)
	fmt.Fprintf(stdout, "failed_frac %.6g (%d of %d requests per episode unanswered after drain)\n",
		v.failedFrac(), v.Unanswered, v.Attempted)
	defs, vals := endToEnd, endToEndValues(r.eps)
	if env.Traced {
		var err error
		defs = perLayer()
		if vals, err = layerValues(r); err != nil {
			return err
		}
	}
	for _, d := range defs {
		m[d.name] = value{vals[d.name], d.unit}
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
	if env.Traced {
		return writeTrace(out, env, m, r.tr)
	}
	return nil
}

type runResult struct {
	attempted int
	eps       []*episode
	tr        *tracer
	err       error
}

// minEpisodes always run: two untraced for the determinism check, and in
// a traced run at least two of each kind for the overhead comparison.
func minEpisodes(traced bool) int {
	if traced {
		return 4
	}
	return 2
}

// measure runs episodes of w until the budget is spent. A traced run
// alternates untraced and traced episodes, so the tracing overhead is
// measured under the same conditions. Every episode must reproduce the
// first one's sim_digest.
func measure(w workload, env envStamp, budget time.Duration) runResult {
	r := runResult{}
	start := time.Now()
	var root int
	if env.Traced {
		r.tr = newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, env.Seed, start.UnixNano()), start)
		root = r.tr.open("run", 0, start)
	}
	for i := 0; i < minEpisodes(env.Traced) || time.Since(start) < budget; i++ {
		r.attempted++
		o := runOpts{seed: env.Seed, workers: env.ParWorkers, traced: env.Traced && i%2 == 1}
		if o.traced {
			o.tr = r.tr
			o.parent = r.tr.open(fmt.Sprintf("episode.%d", i), root, time.Now())
		}
		// Start every episode from a collected heap, so one episode's
		// garbage is not charged to the next one's set-up.
		runtime.GC()
		e, err := w.run(o)
		if o.traced {
			r.tr.close(o.parent, time.Now())
		}
		if err != nil {
			r.err = fmt.Errorf("episode %d: %w", i, err)
			break
		}
		r.eps = append(r.eps, e)
		if e.digest != r.eps[0].digest {
			r.err = fmt.Errorf("episode %d: sim_digest %s differs from episode 0's %s for the same seed",
				i, e.digest, r.eps[0].digest)
			break
		}
		if e.virt.HiBeyondP99 < minBeyond {
			r.err = fmt.Errorf("episode %d: only %d hi samples beyond p99, need %d", i, e.virt.HiBeyondP99, minBeyond)
			break
		}
	}
	if env.Traced {
		r.tr.close(root, time.Now())
	}
	return r
}

func endToEndValues(eps []*episode) map[string]float64 {
	var rates, setups, heaps []float64
	for _, e := range eps {
		rates = append(rates, e.pktsPerS())
		setups = append(setups, e.setupS())
		heaps = append(heaps, e.heapMB)
	}
	v := eps[0].virt
	return map[string]float64{
		"sim_pkts_per_s": median(rates),
		"setup_s":        median(setups),
		"heap_live_mb":   median(heaps),
		"hi_p50_us":      v.HiP50us,
		"hi_p99_us":      v.HiP99us,
		"lo_kpps":        v.LoKpps,
	}
}

// layerValues derives the per-layer metrics: host-side figures from the
// traced episodes, exact counters from the first episode, and the
// overhead from the traced against the untraced episodes' rates.
func layerValues(r runResult) (map[string]float64, error) {
	vals := map[string]float64{}
	for k, v := range r.eps[0].virt.Counters {
		vals[k] = v
	}
	vals["failed_frac"] = r.eps[0].virt.failedFrac()

	var traced []*episode
	var tracedRates, plainRates, slices []float64
	samples := map[string]int64{}
	for _, e := range r.eps {
		if !e.traced {
			plainRates = append(plainRates, e.pktsPerS())
			continue
		}
		traced = append(traced, e)
		tracedRates = append(tracedRates, e.pktsPerS())
		slices = append(slices, e.sliceMS...)
		if err := layerSamples(e.profile, samples); err != nil {
			return nil, err
		}
	}
	var total int64
	for _, n := range samples {
		total += n
	}
	for l, n := range samples {
		vals[l+".cpu_share"] = float64(n) / float64(total)
	}
	perEpisode := func(fn func(e *episode) float64) float64 {
		xs := make([]float64, len(traced))
		for i, e := range traced {
			xs[i] = fn(e)
		}
		return median(xs)
	}
	for _, b := range boundaries {
		vals[b+"_s"] = perEpisode(func(e *episode) float64 { return e.secs[b] })
	}
	slices = sortedCopy(slices)
	vals["sim.slice_ms_p50"] = quantile(slices, 0.5)
	vals["sim.slice_ms_p99"] = quantile(slices, 0.99)
	vals["runtime.allocs_per_pkt"] = perEpisode(func(e *episode) float64 { return float64(e.allocs) / float64(e.frames) })
	vals["runtime.bytes_per_pkt"] = perEpisode(func(e *episode) float64 { return float64(e.allocB) / float64(e.frames) })
	vals["runtime.gc_cycles"] = perEpisode(func(e *episode) float64 { return float64(e.gcCycles) })
	vals["runtime.gc_pause_ms"] = perEpisode(func(e *episode) float64 { return e.gcPause })
	vals["runtime.peak_rss_mb"] = peakRSSMB()
	if _, ok := traced[0].secs["cluster.build"]; ok {
		vals["cluster.heap_kb_per_container"] = perEpisode(func(e *episode) float64 { return e.heapMB }) * 1024 / clusterContainers
	}
	vals["trace.overhead_frac"] = 1 - median(tracedRates)/median(plainRates)
	return vals, nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeTrace writes the traced run's spans, layer table and environment
// to <dir>/trace-<workload>-seed<seed>.json.
func writeTrace(dir string, env envStamp, metrics map[string]value, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", env.Workload, env.Seed))
	b, err := json.Marshal(struct {
		Env    envStamp         `json:"env"`
		Layers map[string]value `json:"layers"`
		Spans  []span           `json:"spans"`
	}{env, metrics, tr.spans})
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}

func stamp(workload string, seed uint64, traced bool) envStamp {
	env := envStamp{
		Workload: workload, Seed: seed, Traced: traced,
		ParWorkers: min(2, runtime.NumCPU()),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	// The build stamps the commit only when it runs inside a git work
	// tree; a plain source checkout reports "unknown".
	if bi, ok := debug.ReadBuildInfo(); ok {
		vcs := map[string]string{}
		for _, s := range bi.Settings {
			vcs[s.Key] = s.Value
		}
		if rev := vcs["vcs.revision"]; rev != "" {
			env.Commit = rev
			if vcs["vcs.modified"] == "true" {
				env.Commit += "-dirty"
			}
		}
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
