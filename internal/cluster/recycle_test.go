package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"prism/internal/sim"
)

// pingPongConfig is a two-host ping-pong cluster with one host per rack,
// so every frame crosses the spine. Every packet is traced (ObsSampling
// 1), so a warmup of a few hundred milliseconds wraps every span ring.
func pingPongConfig() Config {
	specs := make([]ContainerSpec, 8)
	for i := range specs {
		specs[i] = ContainerSpec{Hi: i%4 == 0, Rate: 25_000, Ingress: -1}
	}
	return Config{
		Hosts:       2,
		Placement:   PlaceSpread,
		Seed:        5,
		Host:        testHostSpec(),
		Specs:       specs,
		Fabric:      FabricConfig{Racks: 2},
		Warmup:      sim.Millisecond,
		ObsSampling: 1,
	}
}

// minMallocs returns the fewest heap allocations fn made over ten calls.
func minMallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	best := ^uint64(0)
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// TestClusterPingPongZeroAlloc gates the cluster's generator path: once
// the hosts' wire-frame lists, the event free lists, the link buffers, the
// span rings and every histogram row the traffic reaches have warmed up,
// a ping-pong cluster's request → fabric → echo → reply → sample loop
// allocates nothing. Sequentially a whole run allocates nothing; with a
// pool each run starts and stops its helpers, so at two workers the gate
// is that a run over 10× more virtual time allocates no more than a short
// one, counted with MemStats (testing.AllocsPerRun pins GOMAXPROCS to 1).
func TestClusterPingPongZeroAlloc(t *testing.T) {
	// Two processors at least, so workers=2 builds a pool on any machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c, err := New(pingPongConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(300*sim.Millisecond, workers); err != nil {
				t.Fatal(err)
			}
			for _, p := range c.Pipes() {
				if p.T.Overwritten == 0 {
					t.Fatalf("warmup did not wrap %s's span ring", p.Shard)
				}
			}
			hiS, hiR, loS, loR, _, _ := c.FlowCounts()
			if hiR == 0 || loR == 0 || hiR+loR+16 < hiS+loS {
				t.Fatalf("warmup answered %d+%d of %d+%d requests", hiR, loR, hiS, loS)
			}
			horizon := c.Horizon()
			run := func(d sim.Time) {
				horizon += d
				if err := c.Group.Run(horizon, workers); err != nil {
					t.Fatal(err)
				}
			}
			if workers == 1 {
				if avg := testing.AllocsPerRun(10, func() { run(sim.Millisecond) }); avg != 0 {
					t.Errorf("cluster ping-pong allocates: %.1f allocs per 1ms of virtual time", avg)
				}
			}
			short := minMallocs(func() { run(sim.Millisecond) })
			long := minMallocs(func() { run(10 * sim.Millisecond) })
			if long > short {
				t.Errorf("allocation per virtual time: a 10ms run allocates %d, a 1ms run %d", long, short)
			}
		})
	}
}

// TestClusterFrameRecycling runs a cluster mixing echo flows, floods and
// admission refusals at 1, 2 and 4 workers. Each consumed frame lands on
// its consumer's shard list and is re-encoded there, so under -race the
// test checks that no list is touched off its shard; under -tags
// pooldebug a recycled flood template would be poisoned and surface as
// unroutable frames. The runs must agree with each other, conserve every
// frame, and actually recycle.
func TestClusterFrameRecycling(t *testing.T) {
	type result struct {
		terms  any
		counts [6]uint64
		denied uint64
	}
	var base result
	for _, workers := range []int{1, 2, 4} {
		cfg := smallConfig(9)
		cfg.Admission = &Admission{Rate: 60_000, Burst: 16, HiReserve: 0.25}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(20*sim.Millisecond, workers); err != nil {
			t.Fatal(err)
		}
		held := 0
		for _, n := range c.Nodes {
			held += n.Host.Frames.Len()
		}
		if held == 0 {
			t.Fatalf("workers=%d: no host holds a recycled frame", workers)
		}
		for _, sw := range c.switches() {
			if sw.Unroutable != 0 {
				t.Fatalf("workers=%d: %s dropped %d unroutable frames", workers, sw.Name, sw.Unroutable)
			}
		}
		hiS, hiR, loS, loR, flS, flR := c.FlowCounts()
		if hiR == 0 || loR == 0 || flR == 0 {
			t.Fatalf("workers=%d: delivered hi %d lo %d flood %d", workers, hiR, loR, flR)
		}
		got := result{c.Terms(), [6]uint64{hiS, hiR, loS, loR, flS, flR}, c.AdmissionDenied()}
		if got.denied == 0 {
			t.Fatalf("workers=%d: admission refused nothing", workers)
		}
		if workers == 1 {
			base = got
		} else if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d diverges from workers=1:\n%+v\n%+v", workers, got, base)
		}
		if err := c.Settle(0, workers); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(true); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}
