package prism_test

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"

	"prism/internal/cpu"
	"prism/internal/experiments"
	"prism/internal/nic"
	"prism/internal/obs"
	"prism/internal/overlay"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/testbed"
	"prism/internal/traffic"
)

// newBenchHost builds a vanilla-mode host with the standard experiment NIC
// settings, toggling GRO.
func newBenchHost(eng *sim.Engine, gro bool) *overlay.Host {
	return overlay.NewHost(eng, overlay.Config{
		Mode:       prio.ModeVanilla,
		CStates:    cpu.C1,
		AppCStates: cpu.C1,
		NIC: nic.Config{
			RxUsecs:      8 * sim.Microsecond,
			RxFrames:     32,
			AdaptiveIdle: 100 * sim.Microsecond,
			GRO:          gro,
		},
	})
}

// newFloodRig builds the saturated-flood host of BenchmarkSoftirqPoll and
// the zero-alloc gates — one sink container whose port is marked high
// priority, fed a 600 kpps background flood from t=0 — on the experiment
// testbed, with pipe attached to the whole receive path (nil: unobserved).
func newFloodRig(mode prio.Mode, pipe *obs.Pipeline) (*testbed.Testbed, *traffic.UDPFlood) {
	p := experiments.Default()
	p.Seed = 3
	tb := experiments.NewTestbed(p, mode, testbed.Monolithic, experiments.WithObs(pipe))
	h := tb.Host()
	srv := h.AddContainer("sink")
	h.DB.Add(prio.Rule{IP: srv.IP, Port: 11111})
	fl := traffic.NewUDPFlood(tb.Eng, h, srv, benchClient(0), 11111, 600_000)
	if err := fl.InstallSink(600 * sim.Nanosecond); err != nil {
		panic(err)
	}
	fl.Start(0)
	return tb, fl
}

// runFor advances tb's engine by d of virtual time.
func runFor(tb *testbed.Testbed, d sim.Time) {
	if err := tb.Eng.Run(tb.Eng.Now() + d); err != nil {
		panic(err)
	}
}

// benchClient returns a client-side endpoint for background flows.
func benchClient(idx int) overlay.RemoteEndpoint {
	return overlay.ClientContainer(idx, uint16(41000+idx))
}

// ---------------------------------------------------------------------------
// BENCH_results.json: machine-readable mirror of the benchmark output.

// benchRecord is one benchmark's entry in BENCH_results.json.
type benchRecord struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// PktsPerSec is the simulator's processing rate: (estimated) wire
	// frames one iteration simulates divided by wall-clock time per op.
	PktsPerSec float64            `json:"pkts_per_sec,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

var (
	benchMu  sync.Mutex
	benchOut = map[string]benchRecord{}
)

// record reports metrics on b (sorted, so output order is stable) and
// captures the measurement for BENCH_results.json. pktsPerOp is the
// number of wire frames one iteration simulates — estimated from the
// offered load unless the benchmark counts deliveries — and 0 skips the
// rate. The testing package re-invokes benchmarks while calibrating b.N;
// later invocations overwrite earlier entries, so the file keeps only the
// final, largest-N numbers.
func record(b *testing.B, pktsPerOp float64, metrics map[string]float64) {
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.ReportMetric(metrics[k], k)
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	rec := benchRecord{Name: b.Name(), NsPerOp: ns, Metrics: metrics}
	if pktsPerOp > 0 && ns > 0 {
		rec.PktsPerSec = pktsPerOp * 1e9 / ns
	}
	benchMu.Lock()
	benchOut[rec.Name] = rec
	benchMu.Unlock()
}

// runPkts estimates the wire frames one latency-under-load run injects:
// a request+reply pair per high-priority probe plus one frame per
// background message, over warmup and the measured interval.
func runPkts(p experiments.Params, bg float64) float64 {
	d := (p.Warmup + p.Duration).Seconds()
	return (2*p.HighRate + bg) * d
}

// fig11Pkts sums runPkts over the sweep's mode×load grid.
func fig11Pkts(p experiments.Params, loads []float64) float64 {
	total := 0.0
	for _, l := range loads {
		total += runPkts(p, l)
	}
	return 2 * total
}

// TestMain writes BENCH_results.json next to the module root whenever
// benchmarks ran (go test -bench=...); plain test runs leave it untouched.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && len(benchOut) > 0 {
		if err := writeBenchResults("BENCH_results.json"); err != nil {
			fmt.Fprintf(os.Stderr, "writing BENCH_results.json: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

func writeBenchResults(path string) error {
	// Merge over an existing file so a filtered run (-bench=Fig09)
	// refreshes its own entries without dropping everyone else's.
	if buf, err := os.ReadFile(path); err == nil {
		var prev []benchRecord
		if json.Unmarshal(buf, &prev) == nil {
			for _, r := range prev {
				if _, fresh := benchOut[r.Name]; !fresh {
					benchOut[r.Name] = r
				}
			}
		}
	}
	recs := make([]benchRecord, 0, len(benchOut))
	for _, r := range benchOut {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	buf, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
