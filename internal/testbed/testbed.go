// Package testbed builds the paper's two-machine testbed declaratively:
// one Spec — clients, wire links with their lookahead, NIC configuration,
// engine policy, and shard boundaries — is data, and New wires whichever
// topology it describes:
//
//   - Monolithic: client and server share one engine (the sequential
//     single-machine model every figure harness uses by default).
//   - WireSplit: the client machine runs on one shard, the fully
//     simulated server on another, and the 100 GbE point-to-point link
//     becomes a pair of cross-shard channels whose lookahead is the
//     wire's propagation delay (internal/par).
//   - RSSSplit: the server is additionally sharded per RX queue. Queue
//     q's NIC, softirq engine, processing core, bridge cell, backlog,
//     containers and application threads all live on shard q, because
//     RSS with per-core IRQ affinity makes the queues independent once
//     steering has happened — and steering happens in NIC hardware,
//     before the frame ever touches a simulated CPU. The client steers
//     each frame with the exact RSS hash the NIC would use and sends it
//     over that queue's wire link.
//
// Every topology is deterministic for any worker count; shard RNG
// streams and observability pipelines are derived from the Spec alone.
package testbed

import (
	"fmt"

	"prism/internal/cpu"
	"prism/internal/fault"
	"prism/internal/netdev"
	"prism/internal/nic"
	"prism/internal/obs"
	"prism/internal/overlay"
	"prism/internal/par"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/traffic"
)

// Split selects the shard boundaries of the testbed.
type Split int

const (
	// Monolithic runs everything on one engine.
	Monolithic Split = iota
	// WireSplit cuts the testbed at the wire: client shard | server shard.
	WireSplit
	// RSSSplit additionally shards the server per RX queue:
	// client shard | rxq0 … rxqN-1 shards.
	RSSSplit
)

// Spec declares a whole testbed as data.
type Spec struct {
	// Split selects the shard boundaries (default Monolithic).
	Split Split
	// Seed drives every random choice. The client shard's RNG stream is
	// derived from it (distinct but deterministic).
	Seed uint64
	// Mode is the priority-database mode (flow classification plus the
	// PRISM batch/sync switch).
	Mode prio.Mode
	// Policy optionally overrides the softirq poll policy by registry
	// name; empty derives it from Mode (see overlay.Config).
	Policy string
	// NIC carries interrupt moderation, GRO and priority-ring settings;
	// per-queue identity is filled in by the overlay.
	NIC nic.Config
	// Costs is the CPU cost model; nil uses netdev.DefaultCosts.
	Costs *netdev.Costs
	// CStates / AppCStates configure processing and application cores.
	CStates    []cpu.CState
	AppCStates []cpu.CState
	// BatchSize, when positive, overrides the NAPI batch weight
	// (Costs.BatchSize) on every host — the ablation knob.
	BatchSize int
	// RxQueues is the number of NIC RX queues. Monolithic and WireSplit
	// hosts own all of them; RSSSplit builds one single-queue host per
	// queue, each on its own shard. 0 means 1.
	RxQueues int
	// Pipe instruments a Monolithic or WireSplit testbed's host (the
	// caller names it). RSSSplit and WireSplit testbeds without a Pipe
	// build their own shard-local pipelines ("server", "rxq%d"), keeping
	// collection deterministic for any worker count.
	Pipe *obs.Pipeline

	// Fault, when set, builds a deterministic fault-injection plane from
	// this configuration and threads it through every layer of the host.
	// Monolithic only: a plane is engine-local state, and the sharded
	// splits would need one plane per shard with split RNG streams to stay
	// deterministic — New panics rather than silently diverge.
	Fault *fault.Config
	// Shed enables the priority-aware overload drop policy (NIC ring
	// admission and softirq stage transitions shed low-priority first).
	Shed bool
}

// clientSeed derives the client shard's RNG stream from the testbed seed;
// it only needs to be deterministic and distinct from the server's.
func clientSeed(seed uint64) uint64 { return seed ^ 0xc11e47 }

// queueSeed derives RX-queue shard q's RNG stream.
func queueSeed(seed uint64, q int) uint64 { return seed + uint64(q)*0x9e3779b9 }

// Testbed is one fully wired instance of a Spec.
type Testbed struct {
	Spec Spec

	// Eng is the single engine of a Monolithic testbed; nil when sharded.
	Eng *sim.Engine

	// Group, ClientShard and ServerShards are set when sharded. WireSplit
	// has one server shard; RSSSplit one per RX queue.
	Group        *par.Group
	ClientShard  *par.Shard
	ServerShards []*par.Shard

	// Hosts are the server hosts: one for Monolithic/WireSplit, one per
	// queue for RSSSplit (each single-queue).
	Hosts []*overlay.Host
	// Pipes are the per-host observability pipelines (nil entries when
	// uninstrumented); merge them in order to recover the aggregate view.
	Pipes []*obs.Pipeline
	// Client is the client machine's reply demux.
	Client *traffic.Client

	// Planes holds the fault planes built from Spec.Fault (one per host;
	// empty when not injecting). Run arms their timelines.
	Planes []*fault.Plane

	toServer []*par.Link
	horizon  sim.Time

	ckptEvery  sim.Time
	ckptTicker *par.Ticker
}

// New wires the testbed a Spec describes.
func New(spec Spec) *Testbed {
	if spec.Fault != nil && spec.Split != Monolithic {
		panic("testbed: fault injection requires a Monolithic split")
	}
	t := &Testbed{Spec: spec}
	switch spec.Split {
	case Monolithic:
		t.buildMonolithic(spec)
	case WireSplit:
		t.buildWireSplit(spec)
	case RSSSplit:
		t.buildRSSSplit(spec)
	default:
		panic(fmt.Sprintf("testbed: unknown split %d", spec.Split))
	}
	if spec.BatchSize > 0 {
		for _, h := range t.Hosts {
			h.Costs.BatchSize = spec.BatchSize
		}
	}
	return t
}

func (spec Spec) hostConfig(rxQueues int, pipe *obs.Pipeline) overlay.Config {
	return overlay.Config{
		RxQueues:   rxQueues,
		Mode:       spec.Mode,
		Policy:     spec.Policy,
		Costs:      spec.Costs,
		CStates:    spec.CStates,
		AppCStates: spec.AppCStates,
		NIC:        spec.NIC,
		Obs:        pipe,
	}
}

// BuildHost wires one server host from the Spec onto the given engine —
// the per-host building block of multi-host topologies (internal/cluster),
// which derive one Spec per host (distinct seed and fault stream) and
// connect the resulting hosts over fabric links instead of a single
// client wire. The host is always instrumented: the returned pipeline is
// spec.Pipe when set, otherwise a fresh one labeled name, so per-host
// collection stays shard-local and deterministic at any worker count. The
// fault plane is non-nil only when spec.Fault is set; its timeline is NOT
// started — the caller arms it with Plane.Start once the run's horizon is
// known.
func (spec Spec) BuildHost(eng *sim.Engine, name string) (*overlay.Host, *obs.Pipeline, *fault.Plane) {
	pipe := spec.Pipe
	if pipe == nil {
		pipe = obs.NewPipeline(name)
	}
	cfg := spec.hostConfig(spec.RxQueues, pipe)
	cfg.Shed = spec.Shed
	var plane *fault.Plane
	if spec.Fault != nil {
		plane = fault.NewPlane(eng, *spec.Fault)
		plane.SetObs(pipe)
		cfg.Fault = plane
	}
	return overlay.NewHost(eng, cfg), pipe, plane
}

func (t *Testbed) buildMonolithic(spec Spec) {
	eng := sim.NewEngine(spec.Seed)
	cfg := spec.hostConfig(spec.RxQueues, spec.Pipe)
	cfg.Shed = spec.Shed
	if spec.Fault != nil {
		plane := fault.NewPlane(eng, *spec.Fault)
		plane.SetObs(spec.Pipe)
		cfg.Fault = plane
		t.Planes = []*fault.Plane{plane}
	}
	host := overlay.NewHost(eng, cfg)
	t.Eng = eng
	t.Hosts = []*overlay.Host{host}
	t.Pipes = []*obs.Pipeline{spec.Pipe}
	t.Client = traffic.NewClient(host)
}

func (t *Testbed) buildWireSplit(spec Spec) {
	g := par.NewGroup()
	cs := g.Add("client", sim.NewEngine(clientSeed(spec.Seed)))
	ss := g.Add("server", sim.NewEngine(spec.Seed))
	pipe := spec.Pipe
	if pipe == nil {
		pipe = obs.NewPipeline("server")
	}
	host := overlay.NewHost(ss.Eng, spec.hostConfig(spec.RxQueues, pipe))
	client := traffic.NewClient(host)
	t.Group, t.ClientShard, t.ServerShards = g, cs, []*par.Shard{ss}
	t.Hosts = []*overlay.Host{host}
	t.Pipes = []*obs.Pipeline{pipe}
	t.Client = client

	wire := host.Costs.WireLatency
	t.toServer = []*par.Link{g.Connect(cs, ss, wire, host.InjectFromWire)}
	toClient := g.Connect(ss, cs, wire, client.Deliver)
	// Outbound frames leave over the cross-shard wire instead of being
	// scheduled on the server's own engine.
	host.WireTx = func(now, arrive sim.Time, frame []byte) {
		toClient.Send(now, arrive-now, frame)
	}
}

func (t *Testbed) buildRSSSplit(spec Spec) {
	queues := spec.RxQueues
	if queues < 1 {
		queues = 1
	}
	g := par.NewGroup()
	cs := g.Add("client", sim.NewEngine(clientSeed(spec.Seed)))
	t.Group, t.ClientShard = g, cs
	for q := 0; q < queues; q++ {
		ss := g.Add(fmt.Sprintf("rxq%d", q), sim.NewEngine(queueSeed(spec.Seed, q)))
		pipe := obs.NewPipeline(fmt.Sprintf("rxq%d", q))
		host := overlay.NewHost(ss.Eng, spec.hostConfig(1, pipe))
		t.ServerShards = append(t.ServerShards, ss)
		t.Hosts = append(t.Hosts, host)
		t.Pipes = append(t.Pipes, pipe)
	}
	// One logical client machine demuxes every queue's replies; the
	// attach below is to the first host only for construction, the real
	// return path is the per-queue links.
	t.Client = traffic.NewClient(t.Hosts[0])
	wire := t.Hosts[0].Costs.WireLatency
	for q := 0; q < queues; q++ {
		host := t.Hosts[q]
		t.toServer = append(t.toServer, g.Connect(cs, t.ServerShards[q], wire, host.InjectFromWire))
		back := g.Connect(t.ServerShards[q], cs, wire, t.Client.Deliver)
		host.WireTx = func(now, arrive sim.Time, frame []byte) {
			back.Send(now, arrive-now, frame)
		}
	}
}

// Host returns the (first) server host — the whole server for
// Monolithic/WireSplit, queue 0's slice for RSSSplit.
func (t *Testbed) Host() *overlay.Host { return t.Hosts[0] }

// Pipe returns the (first) host's observability pipeline, if any.
func (t *Testbed) Pipe() *obs.Pipeline { return t.Pipes[0] }

// ClientEng returns the engine client-side generators schedule on.
func (t *Testbed) ClientEng() *sim.Engine {
	if t.ClientShard != nil {
		return t.ClientShard.Eng
	}
	return t.Eng
}

// QueueFor reports which RX queue (and, under RSSSplit, which shard) RSS
// steers a frame to.
func (t *Testbed) QueueFor(frame []byte) int {
	return overlay.RSSQueue(frame, len(t.Hosts))
}

// Inject returns the generator hook (PingPong.Inject and friends) routing
// client→server frames onto queue q's host. Monolithic testbeds return
// nil: generators default to scheduling on the host's own engine. Under
// RSSSplit the hook panics if a frame's RSS hash disagrees with the
// placement — the decomposition would silently diverge from the
// single-host model otherwise.
func (t *Testbed) Inject(q int) func(now, arrive sim.Time, frame []byte) {
	if t.Group == nil {
		return nil
	}
	link := t.toServer[q]
	if t.Spec.Split != RSSSplit {
		return func(now, arrive sim.Time, frame []byte) {
			link.Send(now, arrive-now, frame)
		}
	}
	return func(now, arrive sim.Time, frame []byte) {
		if got := t.QueueFor(frame); got != q {
			panic(fmt.Sprintf("testbed: flow placed on queue shard %d but RSS steers it to %d", q, got))
		}
		link.Send(now, arrive-now, frame)
	}
}

// SetCheckpoint arms a virtual-time checkpoint callback: fn observes the
// testbed every interval of virtual time, at points where every engine is
// quiescent, so it may read hosts, pipelines and counters race-free. It
// must not mutate simulation state. Checkpoints are pure observation and
// provably leave the run bit-identical: a Monolithic run is sliced into
// consecutive Engine.Run horizons (the event schedule is untouched —
// running to t1 then t2 executes exactly the events one run to t2 would),
// and sharded runs hook the par barrier on the coordinator goroutine
// without altering the window schedule. Call before Run.
func (t *Testbed) SetCheckpoint(interval sim.Time, fn func(at sim.Time)) {
	if interval <= 0 || fn == nil {
		t.ckptEvery, t.ckptTicker = 0, nil
		if t.Group != nil {
			t.Group.OnBarrier = nil
		}
		return
	}
	t.ckptEvery = interval
	t.ckptTicker = par.NewTicker(interval, fn)
	if t.Group != nil {
		// All events strictly before windowEnd have executed at a barrier,
		// so every interval multiple ≤ windowEnd-1 is fully covered.
		t.Group.OnBarrier = func(windowEnd sim.Time) { t.ckptTicker.Advance(windowEnd - 1) }
	}
}

// Run executes warmup + duration (with the given worker count when
// sharded), resetting every host's processing-core utilization window at
// the end of warmup so utilization reflects only the measured interval.
func (t *Testbed) Run(warmup, duration sim.Time, workers int) error {
	t.horizon = warmup + duration
	for _, h := range t.Hosts {
		h := h
		h.Eng.At(warmup, func() { h.ProcCore.ResetWindow(warmup) })
	}
	for _, p := range t.Planes {
		// Fault timelines stop scheduling past the horizon, so a
		// post-run Drain terminates.
		p.Start(t.horizon)
	}
	if t.Group == nil {
		if t.ckptTicker != nil {
			for at := t.ckptEvery; at < t.horizon; at += t.ckptEvery {
				if err := t.Eng.Run(at); err != nil {
					return err
				}
				t.ckptTicker.Advance(at)
			}
		}
		if err := t.Eng.Run(t.horizon); err != nil {
			return err
		}
		t.ckptTicker.Flush(t.horizon)
		return nil
	}
	if err := t.Group.Run(t.horizon, workers); err != nil {
		return err
	}
	t.ckptTicker.Flush(t.horizon)
	return nil
}

// Drain runs a Monolithic testbed to event-queue idle after the horizon,
// interleaving watchdog scans: a lost IRQ with no follow-up traffic
// strands ring packets with no event left to move them, and only a rescue
// re-arms the device. Callers must stop their traffic generators first or
// the engine never goes idle.
func (t *Testbed) Drain() error {
	if t.Eng == nil {
		return fmt.Errorf("testbed: Drain requires a Monolithic testbed")
	}
	for i := 0; ; i++ {
		if err := t.Eng.RunUntilIdle(); err != nil {
			return err
		}
		rescued := 0
		for _, p := range t.Planes {
			rescued += p.RescueStuck(t.Eng.Now())
		}
		if rescued == 0 {
			return nil
		}
		if i >= 64 {
			return fmt.Errorf("testbed: drain did not converge after %d watchdog rounds", i)
		}
	}
}
