package prism_test

import (
	"fmt"
	"runtime"
	"testing"

	"prism"
	"prism/internal/obs"
	"prism/internal/par"
	"prism/internal/prio"
	"prism/internal/sim"
)

// TestSteadyStateRxPathZeroAlloc is the allocation regression gate for the
// tentpole pooling work: once the pools, the event free list, and the
// poll-list backing arrays have warmed up, simulating more receive traffic
// must not touch the heap at all. Each probe run pushes ~1ms of saturated
// flood through the full NIC → decap → bridge → veth → socket pipeline.
func TestSteadyStateRxPathZeroAlloc(t *testing.T) {
	for _, mode := range []prism.Mode{prism.ModeVanilla, prism.ModeBatch, prism.ModeSync} {
		t.Run(mode.String(), func(t *testing.T) {
			s := prism.NewSimulation(prism.WithMode(mode), prism.WithSeed(3))
			srv := s.AddContainer("sink")
			s.MarkHighPriority(srv.IP, 11111)
			fl := s.NewBackgroundFlood(srv, 11111, 600_000)

			// Warm up: grow every pool and backing array to the traffic's
			// working-set size. Queue depths fluctuate under the Poisson
			// arrivals, so the working set keeps inching up for a while;
			// 200ms of virtual time is past the deepest excursions.
			s.Run(200_000_000)
			if fl.Delivered() == 0 {
				t.Fatal("warmup delivered nothing")
			}

			if avg := testing.AllocsPerRun(10, func() {
				s.Run(1_000_000)
			}); avg != 0 {
				t.Errorf("steady-state RX path allocates: %.1f allocs per 1ms of virtual time", avg)
			}
		})
	}
}

// TestSteadyStateObservedRxPathZeroAlloc is the same gate with
// observation on: an obs pipeline attached to the whole receive path
// records every DMA, IRQ, stage span, delivery and drop. Once the span
// ring has wrapped, every series has been resolved into its handle and
// every histogram row the traffic reaches exists, recording must not
// touch the heap either — observability cheap enough to leave on.
func TestSteadyStateObservedRxPathZeroAlloc(t *testing.T) {
	for _, mode := range []prio.Mode{prio.ModeVanilla, prio.ModeBatch, prio.ModeSync} {
		t.Run(mode.String(), func(t *testing.T) {
			pipe := obs.NewPipeline("zeroalloc")
			tb, fl := newFloodRig(mode, pipe)
			runFor(tb, 200*sim.Millisecond)
			if fl.Delivered.Count() == 0 || pipe.T.Overwritten == 0 {
				t.Fatalf("warmup delivered %d packets and wrapped the span ring %d times; want both > 0",
					fl.Delivered.Count(), pipe.T.Overwritten)
			}

			if avg := testing.AllocsPerRun(10, func() {
				runFor(tb, sim.Millisecond)
			}); avg != 0 {
				t.Errorf("observed steady-state RX path allocates: %.1f allocs per 1ms of virtual time", avg)
			}
		})
	}
}

// TestCrossShardInjectZeroAlloc gates the parallel runtime's cross-shard
// path: two shards ping-pong a frame each way over 1µs-lookahead links,
// so every synchronization window runs both shards and exercises
// Link.Send, the barrier collect/sort, Group.inject's batched CallAt
// scheduling and, at workers=2, the pool's hand-over and barrier. Once
// the link buffers, inboxes and event free-lists have warmed up, running
// more windows must not allocate — this is the path that regressed when
// inject captured a closure per message. Sequentially a whole Run
// allocates nothing; with a pool each Run starts and stops its helpers,
// so the gate there is that a Run over 10× more windows allocates no
// more than a short one.
func TestCrossShardInjectZeroAlloc(t *testing.T) {
	// Two processors at least, so workers=2 builds a pool on any machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := par.NewGroup()
			sa := g.Add("a", sim.NewEngine(1))
			sb := g.Add("b", sim.NewEngine(2))
			const lookahead = sim.Microsecond
			var ab, ba *par.Link
			ab = g.Connect(sa, sb, lookahead, func(at sim.Time, frame []byte) {
				ba.Send(at, lookahead, frame)
			})
			ba = g.Connect(sb, sa, lookahead, func(at sim.Time, frame []byte) {
				ab.Send(at, lookahead, frame)
			})
			ab.Send(0, lookahead, make([]byte, 64))
			ba.Send(0, lookahead, make([]byte, 64))

			// Warm up the link buffers, inbox slices and both engines' free lists.
			horizon := 10 * sim.Millisecond
			run := func(d sim.Time) {
				horizon += d
				if err := g.Run(horizon, workers); err != nil {
					t.Fatal(err)
				}
			}
			run(0)
			if g.Windows == 0 || g.ShardRuns != 2*g.Windows {
				t.Fatalf("warmup ran %d windows and %d shard-windows; want both shards in every window",
					g.Windows, g.ShardRuns)
			}

			if workers == 1 {
				if avg := testing.AllocsPerRun(10, func() { run(sim.Millisecond) }); avg != 0 {
					t.Errorf("cross-shard inject path allocates: %.1f allocs per 1ms of virtual time", avg)
				}
			}
			// testing.AllocsPerRun pins GOMAXPROCS to 1, which would size
			// the pool away, so count mallocs directly. The minimum over
			// several runs discards the runtime's occasional fresh
			// goroutine record for a helper.
			short := minMallocs(func() { run(sim.Millisecond) })
			long := minMallocs(func() { run(10 * sim.Millisecond) })
			if long > short {
				t.Errorf("allocation per window: a 10ms run allocates %d, a 1ms run %d", long, short)
			}
		})
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
