package cluster

import (
	"sync/atomic"
	"testing"

	"prism/internal/overlay"
	"prism/internal/par"
	"prism/internal/sim"
)

// fwdSource offers a switch a steady two-class stream: every period it
// sends a high- and a best-effort frame back to back, so the egress port
// always has one frame queued behind the one it serializes.
type fwdSource struct {
	eng    *sim.Engine
	link   *par.Link
	frames [2][]byte
	period sim.Time
}

// emitPair is the source's self-rearming event; a top-level function
// scheduled with CallAt, so the source itself allocates nothing.
func emitPair(now sim.Time, a1, _ any) {
	s := a1.(*fwdSource)
	for _, f := range s.frames {
		s.link.Send(now, s.link.Lookahead, f)
	}
	s.eng.CallAt(now+s.period, emitPair, s, nil)
}

// TestFabricForwardZeroAlloc gates the switch forwarding path: once the
// port rings, the event free lists, the link buffers and the switch's
// observation handles have warmed up, frames through Switch.Receive →
// enqueue → startTx → finishTx → Link.Send allocate nothing.
func TestFabricForwardZeroAlloc(t *testing.T) {
	var snap atomic.Pointer[Snapshot]
	snap.Store(NewSnapshot(1, map[uint16]Route{7000: {Hi: true}, 7001: {}}))
	cfg := FabricConfig{}.withDefaults(1, sim.Microsecond)

	g := par.NewGroup()
	sw := newSwitch(g, "tor00", 1, cfg.TorLatency, cfg, &snap)
	src := g.Add("src", sim.NewEngine(2))
	sink := g.Add("sink", sim.NewEngine(3))
	delivered := 0
	port := sw.addPort("tor00->sink", g.Connect(sw.Shard, sink, cfg.HostLink, func(sim.Time, []byte) {
		delivered++
	}), cfg.HostLink)
	sw.portFor = func(Route) *Port { return port }
	s := &fwdSource{
		eng:  src.Eng,
		link: g.Connect(src, sw.Shard, cfg.HostLink, sw.Receive),
		frames: [2][]byte{
			overlay.HostUDPToServer(40000, 7000, make([]byte, 64)),
			overlay.HostUDPToServer(40001, 7001, make([]byte, 64)),
		},
		period: 2 * sim.Microsecond,
	}
	src.Eng.CallAt(0, emitPair, s, nil)

	horizon := 20 * sim.Millisecond
	if err := g.Run(horizon, 1); err != nil {
		t.Fatal(err)
	}
	if delivered == 0 || port.Dropped != 0 || sw.Unroutable != 0 {
		t.Fatalf("warmup delivered %d frames with %d drops and %d unroutable; want a clean stream",
			delivered, port.Dropped, sw.Unroutable)
	}

	before := delivered
	if avg := testing.AllocsPerRun(10, func() {
		horizon += sim.Millisecond
		if err := g.Run(horizon, 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("fabric forwarding allocates: %.1f allocs per 1ms of virtual time", avg)
	}
	// 11 runs of 1ms (AllocsPerRun adds a warm-up call) at two frames
	// per 2µs.
	if got := delivered - before; got < 10_000 {
		t.Errorf("measured runs forwarded only %d frames", got)
	}
}
