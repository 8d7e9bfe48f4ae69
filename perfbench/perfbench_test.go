package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"prism/internal/sim"
)

// shortRun is a measured interval short enough for unit tests.
func shortRun(name string) sim.Time {
	if name == "cluster-spread" {
		return 20 * sim.Millisecond
	}
	return 200 * sim.Millisecond
}

func TestWorkloadsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run := func(seed uint64) *episode {
				e, err := w.run(runOpts{seed: seed, workers: 2, duration: shortRun(w.name)})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				return e
			}
			a, b, c := run(7), run(7), run(8)
			if a.digest != b.digest || !reflect.DeepEqual(a.virt, b.virt) {
				t.Errorf("same seed, different results:\n%+v %s\n%+v %s", a.virt, a.digest, b.virt, b.digest)
			}
			if a.digest == c.digest || reflect.DeepEqual(a.virt, c.virt) {
				t.Errorf("seeds 7 and 8 gave identical results %s", a.digest)
			}
			if a.frames == 0 || a.virt.HiSamples == 0 || a.virt.LoKpps == 0 {
				t.Errorf("episode measured nothing: frames %d, hi samples %d, lo %v kpps",
					a.frames, a.virt.HiSamples, a.virt.LoKpps)
			}
		})
	}
}

// fakeWorkload returns canned episodes, to drive measure's checks.
func fakeWorkload(digests []string, err error) workload {
	i := 0
	return workload{name: "fake", run: func(o runOpts) (*episode, error) {
		if i >= len(digests) {
			return nil, err
		}
		e := &episode{traced: o.traced, secs: map[string]float64{"sim.measure": 1}, frames: 1,
			digest: digests[i], virt: virtual{HiBeyondP99: minBeyond}}
		i++
		return e, nil
	}}
}

func TestMeasureRejectsDigestMismatch(t *testing.T) {
	r := measure(fakeWorkload([]string{"a", "b"}, nil), envStamp{}, 0)
	if r.err == nil || !strings.Contains(r.err.Error(), "sim_digest") {
		t.Errorf("measure accepted two digests for one seed: %v", r.err)
	}
}

func TestMeasureStopsOnEpisodeError(t *testing.T) {
	conservation := errors.New("wire conservation broken")
	r := measure(fakeWorkload([]string{"a"}, conservation), envStamp{}, 0)
	if !errors.Is(r.err, conservation) || len(r.eps) != 1 {
		t.Errorf("measure = %d episodes, err %v; want 1 episode and the conservation error", len(r.eps), r.err)
	}
}

func TestMeasureRunsMinimumEpisodes(t *testing.T) {
	digests := []string{"a", "a", "a", "a", "a"}
	if r := measure(fakeWorkload(digests, nil), envStamp{}, 0); r.err != nil || len(r.eps) != 2 {
		t.Errorf("untraced: %d episodes, err %v; want 2", len(r.eps), r.err)
	}
	r := measure(fakeWorkload(digests, nil), envStamp{Traced: true}, 0)
	var traced []bool
	for _, e := range r.eps {
		traced = append(traced, e.traced)
	}
	if r.err != nil || !reflect.DeepEqual(traced, []bool{false, true, false, true}) {
		t.Errorf("traced: episodes %v, err %v; want four alternating", traced, r.err)
	}
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

func TestRunPrintsEveryMetric(t *testing.T) {
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer()}} {
		dir := t.TempDir()
		var out bytes.Buffer
		code := run([]string{"--workload", "host-burst", "--seed", "3", "--seconds", "0.1",
			"--trace", c.trace, "--out", dir}, &out, io.Discard)
		if code != 0 {
			t.Fatalf("--trace %s: exit %d\n%s", c.trace, code, out.String())
		}
		res := lastLine(t, out.String())
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("--trace %s: result %+v", c.trace, res)
		}
		if len(res.Metrics) != len(c.defs) {
			t.Errorf("--trace %s: %d metrics, want %d", c.trace, len(res.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("--trace %s: metric %s = %+v, want unit %s", c.trace, d.name, m, d.unit)
			}
		}
		spans, _ := filepath.Glob(filepath.Join(dir, "trace-*.json"))
		if want := map[string]int{"0": 0, "1": 1}[c.trace]; len(spans) != want {
			t.Errorf("--trace %s: span files %v, want %d", c.trace, spans, want)
		}
	}
}

func TestRunRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "host-burst", "--trace", "2"},
		{"--workload", "host-burst", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps the repository's benchmark
// definition and the metrics this program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	for i, w := range def.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, w.Name)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(def.Workloads), len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer())
}

func TestTracerRecordsParentedSpans(t *testing.T) {
	t0 := time.Now()
	tr := newTracer("run-1", t0)
	root := tr.open("run", 0, t0)
	child := tr.add("testbed.build", root, t0, t0.Add(time.Millisecond))
	tr.close(root, t0.Add(2*time.Millisecond))
	if len(tr.spans) != 2 || tr.spans[child-1].Parent != root || tr.spans[root-1].StartMS != 0 ||
		tr.spans[root-1].EndMS <= tr.spans[child-1].EndMS {
		t.Errorf("spans = %+v", tr.spans)
	}
	var none *tracer
	if id := none.add("x", 0, t0, t0); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	none.close(1, t0)
}
