package prism_test

import (
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
// path: two shards ping-pong a pooled token pointer over 1µs-lookahead
// links, so every synchronization window exercises Link.Send, the barrier
// collect/sort, and Group.inject's batched CallAt scheduling. Once the
// link buffers, inboxes and event free-lists have warmed up, running more
// windows must not allocate — this is the path that regressed when inject
// captured a closure per message.
func TestCrossShardInjectZeroAlloc(t *testing.T) {
	g := par.NewGroup()
	sa := g.Add("a", sim.NewEngine(1))
	sb := g.Add("b", sim.NewEngine(2))
	const lookahead = sim.Microsecond
	var ab, ba *par.Link
	ab = g.Connect(sa, sb, lookahead, func(at sim.Time, payload any) {
		ba.Send(at, lookahead, payload)
	})
	ba = g.Connect(sb, sa, lookahead, func(at sim.Time, payload any) {
		ab.Send(at, lookahead, payload)
	})
	token := new(int)
	ab.Send(0, lookahead, token)

	// Warm up the link buffers, inbox slices and both engines' free lists.
	horizon := 10 * sim.Millisecond
	if err := g.Run(horizon, 1); err != nil {
		t.Fatal(err)
	}
	if g.Windows == 0 {
		t.Fatal("warmup ran no synchronization windows")
	}

	if avg := testing.AllocsPerRun(10, func() {
		horizon += sim.Millisecond
		if err := g.Run(horizon, 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("cross-shard inject path allocates: %.1f allocs per 1ms of virtual time", avg)
	}
}
