package traffic

import (
	"math"
	"testing"

	"prism/internal/cpu"
	"prism/internal/overlay"
	"prism/internal/pkt"
	"prism/internal/prio"
	"prism/internal/sim"
)

func newRig(t *testing.T, mode prio.Mode) (*sim.Engine, *overlay.Host, *Client) {
	t.Helper()
	eng := sim.NewEngine(11)
	h := overlay.NewHost(eng, overlay.Config{Mode: mode, CStates: cpu.C1, AppCStates: cpu.C1})
	return eng, h, NewClient(h)
}

func TestPingPongMeasuresLatency(t *testing.T) {
	eng, h, client := newRig(t, prio.ModeVanilla)
	ctr := h.AddContainer("srv")
	pp := NewPingPong(eng, h, ctr, overlay.ClientContainer(0, 40001), 11111, 1000)
	if err := pp.InstallEcho(1 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	pp.Start(client, 0)
	if err := eng.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if pp.Sent < 99 || pp.Sent > 101 {
		t.Errorf("Sent = %d, want ~100 at 1kpps over 100ms", pp.Sent)
	}
	// All but the last in-flight request must complete on an idle server.
	if pp.Received < pp.Sent-2 {
		t.Errorf("Received = %d of %d", pp.Received, pp.Sent)
	}
	if pp.Hist.Count() == 0 {
		t.Fatal("no latency samples")
	}
	med := pp.Hist.Median()
	// Idle overlay RTT/2 lands in the tens of microseconds.
	if med < 10*sim.Microsecond || med > 120*sim.Microsecond {
		t.Errorf("idle median latency = %v, want tens of µs", med)
	}
	if client.Unrouted != 0 {
		t.Errorf("Unrouted = %d", client.Unrouted)
	}
}

func TestPingPongHostNetwork(t *testing.T) {
	eng, h, client := newRig(t, prio.ModeVanilla)
	pp := NewPingPong(eng, h, nil, overlay.RemoteEndpoint{Port: 40002}, 9000, 1000)
	if err := pp.InstallEcho(1 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	pp.Start(client, 0)
	if err := eng.Run(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if pp.Hist.Count() == 0 {
		t.Fatal("no samples on host network")
	}
	// The single-stage host path must be faster than the overlay.
	engO, hO, clientO := newRig(t, prio.ModeVanilla)
	ctr := hO.AddContainer("srv")
	ppO := NewPingPong(engO, hO, ctr, overlay.ClientContainer(0, 40001), 11111, 1000)
	if err := ppO.InstallEcho(1 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	ppO.Start(clientO, 0)
	if err := engO.Run(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if pp.Hist.Median() >= ppO.Hist.Median() {
		t.Errorf("host median %v not faster than overlay median %v",
			pp.Hist.Median(), ppO.Hist.Median())
	}
}

func TestPingPongWarmupFilters(t *testing.T) {
	eng, h, client := newRig(t, prio.ModeVanilla)
	ctr := h.AddContainer("srv")
	pp := NewPingPong(eng, h, ctr, overlay.ClientContainer(0, 40001), 11111, 1000)
	pp.Warmup = 50 * sim.Millisecond
	if err := pp.InstallEcho(0); err != nil {
		t.Fatal(err)
	}
	pp.Start(client, 0)
	if err := eng.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if pp.Hist.Count() >= pp.Received {
		t.Errorf("warmup not filtered: %d samples of %d replies", pp.Hist.Count(), pp.Received)
	}
	if pp.Hist.Count() == 0 {
		t.Error("all samples filtered")
	}
}

func TestPingPongStop(t *testing.T) {
	eng, h, client := newRig(t, prio.ModeVanilla)
	ctr := h.AddContainer("srv")
	pp := NewPingPong(eng, h, ctr, overlay.ClientContainer(0, 40001), 11111, 1000)
	if err := pp.InstallEcho(0); err != nil {
		t.Fatal(err)
	}
	pp.Start(client, 0)
	eng.At(10*sim.Millisecond, pp.Stop)
	if err := eng.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if pp.Sent > 12 {
		t.Errorf("Sent = %d after Stop at 10ms", pp.Sent)
	}
}

func TestPingPongPoisson(t *testing.T) {
	eng, h, client := newRig(t, prio.ModeVanilla)
	ctr := h.AddContainer("srv")
	pp := NewPingPong(eng, h, ctr, overlay.ClientContainer(0, 40001), 11111, 2000)
	pp.Poisson = true
	if err := pp.InstallEcho(0); err != nil {
		t.Fatal(err)
	}
	pp.Start(client, 0)
	if err := eng.Run(500 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	rate := float64(pp.Sent) / 0.5
	if math.Abs(rate-2000) > 300 {
		t.Errorf("poisson rate = %.0f, want ~2000", rate)
	}
}

func TestUDPFloodRateAndDelivery(t *testing.T) {
	eng, h, _ := newRig(t, prio.ModeVanilla)
	ctr := h.AddContainer("bg")
	fl := NewUDPFlood(eng, h, ctr, overlay.ClientContainer(1, 41000), 5001, 100_000)
	if err := fl.InstallSink(500 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	fl.Start(0)
	const horizon = 200 * sim.Millisecond
	if err := eng.Run(horizon); err != nil {
		t.Fatal(err)
	}
	sentRate := float64(fl.Sent) / horizon.Seconds()
	if math.Abs(sentRate-100_000) > 10_000 {
		t.Errorf("sent rate = %.0f pps, want ~100k", sentRate)
	}
	// 100 kpps is well under capacity: nearly everything is delivered.
	if got := fl.Delivered.Count(); got < fl.Sent*95/100 {
		t.Errorf("delivered %d of %d sent", got, fl.Sent)
	}
}

// A flood whose burst is below one sends nothing and schedules nothing: it
// must not re-arm an empty emission every nanosecond.
func TestUDPFloodEmptyBurstSchedulesNothing(t *testing.T) {
	for _, burst := range []int{0, -3} {
		eng, h, _ := newRig(t, prio.ModeVanilla)
		fl := NewUDPFlood(eng, h, h.AddContainer("bg"), overlay.ClientContainer(1, 41000), 5001, 300_000)
		fl.Burst = burst
		fl.Start(0)
		if n := eng.Pending(); n != 0 {
			t.Errorf("burst %d: %d events pending after Start, want 0", burst, n)
		}
		if err := eng.Run(sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if fl.Sent != 0 {
			t.Errorf("burst %d: sent %d frames, want 0", burst, fl.Sent)
		}
	}
}

func TestUDPFloodConsumesProcessingCPU(t *testing.T) {
	eng, h, _ := newRig(t, prio.ModeVanilla)
	ctr := h.AddContainer("bg")
	fl := NewUDPFlood(eng, h, ctr, overlay.ClientContainer(1, 41000), 5001, 300_000)
	if err := fl.InstallSink(500 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	h.ProcCore.ResetWindow(0)
	fl.Start(0)
	if err := eng.Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	u := h.ProcCore.Utilization(eng.Now())
	// The paper reports 60–70% of the processing core at ~300 kpps.
	if u < 0.55 || u > 0.8 {
		t.Errorf("processing-core utilization = %.2f, want ~0.6–0.7", u)
	}
}

func TestTCPStreamSegmentsMessages(t *testing.T) {
	eng, h, _ := newRig(t, prio.ModeVanilla)
	ctr := h.AddContainer("bg")
	st := NewTCPStream(eng, h, ctr, overlay.ClientContainer(1, 42000), 5201, 100)
	if err := st.InstallSink(500 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	st.Start(0)
	if err := eng.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	segsPerMsg := (st.MsgSize + st.MSS - 1) / st.MSS
	if segsPerMsg != 45 {
		t.Errorf("segments per 64KB message = %d, want 45 at MSS %d", segsPerMsg, st.MSS)
	}
	wantPkts := uint64(10) * uint64(segsPerMsg) // ~10 messages in 100ms
	if st.SentPkts < wantPkts*8/10 || st.SentPkts > wantPkts*12/10 {
		t.Errorf("SentPkts = %d, want ~%d", st.SentPkts, wantPkts)
	}
	// GRO off by default in this rig config; bytes must still be conserved
	// through the pipeline.
	if st.Delivered.Bytes() == 0 {
		t.Error("no TCP payload delivered")
	}
}

func TestTCPStreamWithGROReducesSKBs(t *testing.T) {
	run := func(gro bool) uint64 {
		eng := sim.NewEngine(3)
		h := overlay.NewHost(eng, overlay.Config{
			Mode: prio.ModeVanilla, CStates: cpu.C1, AppCStates: cpu.C1,
			NIC: nicConfig(gro),
		})
		NewClient(h)
		ctr := h.AddContainer("bg")
		st := NewTCPStream(eng, h, ctr, overlay.ClientContainer(1, 42000), 5201, 200)
		if err := st.InstallSink(500 * sim.Nanosecond); err != nil {
			t.Fatal(err)
		}
		st.Start(0)
		if err := eng.Run(100 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		return st.Delivered.Count()
	}
	plain := run(false)
	gro := run(true)
	if gro*4 > plain {
		t.Errorf("GRO delivered %d SKBs vs %d without; want >=4x reduction", gro, plain)
	}
}

func TestClientUnroutedCounting(t *testing.T) {
	eng, h, client := newRig(t, prio.ModeVanilla)
	// A host app replies to a port nobody registered.
	h.SendHostUDP(0, 12345, 80, []byte("hi"))
	if err := eng.Run(sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if client.Unrouted != 1 {
		t.Errorf("Unrouted = %d, want 1", client.Unrouted)
	}
}

// TestPingPongNonPositiveRateSendsNothing: a flow without a positive rate
// has no request interval; Start registers it but schedules nothing,
// instead of converting an infinite interval into a past timestamp.
func TestPingPongNonPositiveRateSendsNothing(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN()} {
		eng, h, client := newRig(t, prio.ModeVanilla)
		ctr := h.AddContainer("srv")
		pp := NewPingPong(eng, h, ctr, overlay.ClientContainer(0, 40001), 11111, rate)
		if err := pp.InstallEcho(sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		pp.Start(client, 0)
		if eng.Pending() != 0 {
			t.Errorf("rate %v: %d events scheduled, want none", rate, eng.Pending())
		}
		if err := eng.Run(10 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if pp.Sent != 0 {
			t.Errorf("rate %v: sent %d requests", rate, pp.Sent)
		}
	}
}

// TestPingPongRecycledFramesMatchFresh runs two identical generators, one
// encoding into recycled, poisoned buffers that its injector hands back
// after copying each frame, and requires byte-identical request streams.
func TestPingPongRecycledFramesMatchFresh(t *testing.T) {
	stream := func(recycle bool) [][]byte {
		eng, h, client := newRig(t, prio.ModeVanilla)
		ctr := h.AddContainer("srv")
		pp := NewPingPong(eng, h, ctr, overlay.ClientContainer(3, 40003), 11111, 100_000)
		var frames pkt.WireFrames
		if recycle {
			pp.Frames = &frames
		}
		var out [][]byte
		pp.Inject = func(_, _ sim.Time, frame []byte) {
			out = append(out, append([]byte(nil), frame...))
			if recycle {
				for i := range frame {
					frame[i] = 0xDB
				}
				frames.Put(frame)
			}
		}
		pp.Start(client, 0)
		if err := eng.Run(sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		return out
	}
	fresh, recycled := stream(false), stream(true)
	if len(fresh) == 0 || len(fresh) != len(recycled) {
		t.Fatalf("streams of %d and %d frames", len(fresh), len(recycled))
	}
	for i := range fresh {
		if string(fresh[i]) != string(recycled[i]) {
			t.Fatalf("frame %d differs\n fresh    %x\n recycled %x", i, fresh[i], recycled[i])
		}
	}
}
