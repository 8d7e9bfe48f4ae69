// Command benchgate compares a fresh benchmark run against a committed
// BENCH_results.json baseline and fails when any shared benchmark's ns/op
// regressed by more than the threshold. CI copies the committed file
// aside, reruns the gated benchmarks (which rewrite BENCH_results.json in
// place), and then invokes this gate:
//
//	cp BENCH_results.json /tmp/baseline.json
//	go test -run XXX -bench "$(go run ./cmd/benchgate -print-gated-regex)" -benchmem .
//	go run ./cmd/benchgate -baseline /tmp/baseline.json
//
// The gated set lives in one place — gatedBenchRegex below — and CI
// derives its -bench expression from -print-gated-regex, so adding a
// benchmark to the gate is one edit here and nothing else.
//
// Benchmarks present on only one side are reported but never fail the
// gate, so adding or retiring a benchmark does not need a baseline dance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// gatedBenchRegex selects the regression-gated benchmarks: the pooled
// softirq hot path, the burst ablation, the cluster sweep, the event
// queue microbenchmarks guarding the timing wheel, the observed vs
// unobserved flood pricing the obs pipeline, and the paper-scale cluster
// run at 1 and 2 workers pricing the par runtime. This is the single
// source of truth — the CI bench job runs exactly this set.
const gatedBenchRegex = "BenchmarkSoftirqPoll|BenchmarkAblationBurst|BenchmarkClusterSweep|BenchmarkEventQueue|BenchmarkObsOverhead|BenchmarkClusterScaling"

type record struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

func load(path string) (map[string]record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(buf, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]record, len(recs))
	for _, r := range recs {
		out[r.Name] = r
	}
	return out, nil
}

func main() {
	baseline := flag.String("baseline", "", "committed baseline BENCH_results.json")
	current := flag.String("current", "BENCH_results.json", "freshly generated results")
	threshold := flag.Float64("threshold", 0.10, "allowed fractional ns/op regression")
	printRegex := flag.Bool("print-gated-regex", false, "print the gated benchmark -bench regex and exit")
	flag.Parse()
	if *printRegex {
		fmt.Println(gatedBenchRegex)
		return
	}
	if *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline is required")
		os.Exit(2)
	}

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		c := cur[name]
		b, ok := base[name]
		if !ok || b.NsPerOp <= 0 {
			fmt.Printf("  new       %-60s %14.0f ns/op\n", name, c.NsPerOp)
			continue
		}
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		verdict := "ok"
		if delta > *threshold {
			verdict = "REGRESSION"
			failed = true
		}
		fmt.Printf("  %-9s %-60s %14.0f -> %14.0f ns/op (%+.1f%%)\n",
			verdict, name, b.NsPerOp, c.NsPerOp, 100*delta)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: ns/op regressed more than %.0f%% against %s\n",
			100**threshold, *baseline)
		os.Exit(1)
	}
}
