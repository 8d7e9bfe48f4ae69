package par

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"prism/internal/sim"
)

// poolWorkers are the worker counts every pool test runs at.
var poolWorkers = []int{1, 2, 4}

// withProcs raises GOMAXPROCS to at least n for the test, so the pool
// really starts helpers even on a machine with fewer cores.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(max(n, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestPoolSkipsIdleShards runs a busy pair next to four shards with at
// most one event of their own: windows execute only the shards with work,
// yet every clock, idle or not, ends at the horizon, and the shard-window
// count is a pure function of the timeline.
func TestPoolSkipsIdleShards(t *testing.T) {
	withProcs(t, 4)
	const horizon = 1000
	var wantRuns uint64
	for _, workers := range poolWorkers {
		g := NewGroup()
		a := g.Add("a", sim.NewEngine(1))
		b := g.Add("b", sim.NewEngine(2))
		var idle []*Shard
		for i := 0; i < 4; i++ {
			idle = append(idle, g.Add(fmt.Sprintf("idle-%d", i), sim.NewEngine(uint64(10+i))))
		}
		var ab, ba *Link
		ab = g.Connect(a, b, 10, func(at sim.Time, frame []byte) { ba.Send(at, 10, frame) })
		ba = g.Connect(b, a, 10, func(at sim.Time, frame []byte) { ab.Send(at, 10, frame) })
		ab.Send(0, 10, []byte("token"))
		fired := 0
		idle[1].Eng.At(500, func() { fired++ })

		if err := g.Run(horizon, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, s := range g.Shards() {
			if s.Eng.Now() != horizon {
				t.Errorf("workers=%d: %s clock %v, want %v", workers, s, s.Eng.Now(), horizon)
			}
		}
		if fired != 1 {
			t.Errorf("workers=%d: idle shard's own event fired %d times", workers, fired)
		}
		if g.ShardRuns >= 2*g.Windows {
			t.Errorf("workers=%d: %d shard-windows over %d windows; idle shards were not skipped",
				workers, g.ShardRuns, g.Windows)
		}
		if wantRuns == 0 {
			wantRuns = g.ShardRuns
		} else if g.ShardRuns != wantRuns {
			t.Errorf("workers=%d: %d shard-windows, sequential %d", workers, g.ShardRuns, wantRuns)
		}
	}
}

// TestPoolHaltSurfacesLowestID halts two shards in the same window, owned
// by different workers at 2 and 4 workers: the error must name the
// lower-ID one at every worker count.
func TestPoolHaltSurfacesLowestID(t *testing.T) {
	withProcs(t, 4)
	for _, workers := range poolWorkers {
		g := NewGroup()
		for i := 0; i < 6; i++ {
			s := g.Add(fmt.Sprintf("s%d", i), sim.NewEngine(uint64(i)))
			s.Eng.At(10, func() {
				if s.ID == 2 || s.ID == 5 {
					s.Eng.Halt()
				}
			})
		}
		err := g.Run(100, workers)
		if !errors.Is(err, sim.ErrHalted) {
			t.Fatalf("workers=%d: err = %v, want ErrHalted", workers, err)
		}
		if !strings.Contains(err.Error(), "(s2)") {
			t.Errorf("workers=%d: err %q does not name the lowest-ID halted shard s2", workers, err)
		}
	}
}

// TestPoolRepeatedRuns drives one group through many consecutive Run
// calls, each starting and stopping its own pool: the deliveries must
// match one sequential run to the same horizon.
func TestPoolRepeatedRuns(t *testing.T) {
	withProcs(t, 4)
	const k, horizon = 5, 200_000
	base := runRing(t, k, 1, horizon)
	for _, workers := range poolWorkers {
		m := buildRing(k, 1000)
		for h := sim.Time(7_000); ; h += 7_000 {
			h = min(h, horizon)
			if err := m.group.Run(h, workers); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if h == horizon {
				break
			}
		}
		if !reflect.DeepEqual(base.logs, m.logs) {
			t.Errorf("workers=%d: repeated runs delivered differently from one sequential run", workers)
		}
	}
}

// TestPoolBarrierHookMutation has an OnBarrier hook write per-shard state
// that the shards' events read in the next window — the pattern cluster
// recovery relies on. Under -race this proves the pool barrier orders the
// hook against the workers; at every worker count the events observe the
// same values.
func TestPoolBarrierHookMutation(t *testing.T) {
	withProcs(t, 4)
	capture := func(workers int) [][]int {
		g := NewGroup()
		const k = 4
		gain := make([]int, k)
		seen := make([][]int, k)
		shards := make([]*Shard, k)
		for i := range shards {
			shards[i] = g.Add(fmt.Sprintf("h%d", i), sim.NewEngine(uint64(i)))
		}
		links := make([]*Link, k)
		for i := range shards {
			links[i] = g.Connect(shards[i], shards[(i+1)%k], 50, func(sim.Time, []byte) {})
		}
		for i, s := range shards {
			i, s := i, s
			var tick func()
			tick = func() {
				seen[i] = append(seen[i], gain[i])
				links[i].Send(s.Eng.Now(), 50, nil)
				s.Eng.After(sim.Time(20+7*i), tick)
			}
			s.Eng.At(sim.Time(i), tick)
		}
		g.OnBarrier = func(end sim.Time) {
			for i := range gain {
				gain[i] += int(end) % 7
			}
		}
		if err := g.Run(20_000, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return seen
	}
	base := capture(1)
	for _, workers := range poolWorkers[1:] {
		if got := capture(workers); !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: events observed different barrier state than sequential", workers)
		}
	}
}
