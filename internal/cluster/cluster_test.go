package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"prism/internal/cpu"
	"prism/internal/fault"
	"prism/internal/nic"
	"prism/internal/obs"
	"prism/internal/prio"
	"prism/internal/sim"
	"prism/internal/testbed"
)

// --- control plane ---

func specsOf(pattern string) []ContainerSpec {
	specs := make([]ContainerSpec, len(pattern))
	for i, c := range pattern {
		specs[i] = ContainerSpec{Name: fmt.Sprintf("c%d", i), Hi: c == 'H'}
	}
	return specs
}

// placeCase is one placer input. A case without load is build-time
// placement (Place over an empty, fully alive cluster of hosts); one with
// load is re-placement over live state (alive nil = every host alive).
type placeCase struct {
	name    string
	pattern string // one letter per container: H high priority, L best effort
	hosts   int
	load    []int
	alive   []bool
	hostCap int
	want    []int
}

func runPlaceCases(t *testing.T, policy Placement, cases []placeCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []int
			var err error
			if tc.load == nil {
				got, err = Place(policy, specsOf(tc.pattern), tc.hosts, tc.hostCap)
			} else {
				alive := tc.alive
				if alive == nil {
					alive = allAlive(len(tc.load))
				}
				got, err = place(policy, hiOf(tc.pattern), tc.load, alive, tc.hostCap)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%v placement = %v, want %v", policy, got, tc.want)
			}
		})
	}
}

// hiOf is specsOf's priority flags, the placer's view of a workload.
func hiOf(pattern string) []bool {
	hi := make([]bool, len(pattern))
	for i, c := range pattern {
		hi[i] = c == 'H'
	}
	return hi
}

func allAlive(hosts int) []bool {
	alive := make([]bool, hosts)
	for h := range alive {
		alive[h] = true
	}
	return alive
}

func TestPlaceSpread(t *testing.T) {
	runPlaceCases(t, PlaceSpread, []placeCase{
		// Least-loaded with lowest-ID ties: round-robin.
		{name: "build-time", pattern: "LLLLL", hosts: 3, hostCap: 10, want: []int{0, 1, 2, 0, 1}},
		// Least-loaded among the alive hosts: host 1 fills to host 2's
		// load, then the tie breaks toward the lower ID; dead host 3 is
		// never chosen despite being emptiest.
		{name: "live-load", pattern: "LLLL", load: []int{5, 1, 3, 2},
			alive: []bool{true, true, true, false}, hostCap: 10, want: []int{1, 1, 1, 2}},
	})
}

func TestPlacePack(t *testing.T) {
	runPlaceCases(t, PlacePack, []placeCase{
		{name: "build-time", pattern: "LLLLL", hosts: 3, hostCap: 2, want: []int{0, 0, 1, 1, 2}},
		// Host 0 has one slot, host 1 is dead, host 2 takes the rest.
		{name: "skips-dead-and-full", pattern: "LLL", load: []int{1, 1, 0},
			alive: []bool{true, false, true}, hostCap: 2, want: []int{0, 2, 2}},
	})
}

func TestPlacePriority(t *testing.T) {
	runPlaceCases(t, PlacePriority, []placeCase{
		// Best-effort packs hosts 0 and 1; the high-priority containers
		// then go to the emptiest hosts.
		{name: "build-time", pattern: "LLHLH", hosts: 3, hostCap: 3, want: []int{0, 0, 1, 0, 2}},
		// Best-effort packed onto host 0 first; the hi container then
		// spreads to the emptier host 1.
		{name: "live-load", pattern: "HLL", load: []int{0, 0}, hostCap: 4, want: []int{1, 0, 0}},
	})
}

func TestPlaceRespectsCapacity(t *testing.T) {
	for _, pol := range Placements {
		assign, err := Place(pol, specsOf("HLHLHLHL"), 2, 4)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		count := map[int]int{}
		for _, h := range assign {
			count[h]++
		}
		for h, n := range count {
			if n > 4 {
				t.Fatalf("%v: host %d got %d containers, cap 4", pol, h, n)
			}
		}
	}
	if _, err := Place(PlaceSpread, specsOf("LLLLL"), 2, 2); err == nil ||
		!strings.Contains(err.Error(), "exceed cluster capacity") {
		t.Fatalf("placement over capacity: got %v, want loud capacity error", err)
	}

	// Re-placement onto a full surviving set must error, never wrap
	// around or overload a host.
	t.Run("full-survivors-fail-loudly", func(t *testing.T) {
		load := []int{2, 2, 1}
		alive := []bool{true, true, false} // the host with room is dead
		_, err := place(PlacePack, make([]bool, 1), load, alive, 2)
		if err == nil || !strings.Contains(err.Error(), "exceed surviving capacity") {
			t.Fatalf("full cluster: got %v, want loud capacity error", err)
		}
		// One free slot, two containers: still loud.
		alive[2] = true
		_, err = place(PlaceSpread, make([]bool, 2), load, alive, 2)
		if err == nil || !strings.Contains(err.Error(), "exceed surviving capacity") {
			t.Fatalf("over capacity by one: got %v, want loud capacity error", err)
		}
		// Exactly enough capacity succeeds.
		if _, err := place(PlaceSpread, make([]bool, 1), load, alive, 2); err != nil {
			t.Fatalf("exact fit rejected: %v", err)
		}
	})
}

// TestPlaceProperties drives the placer with seeded random inputs —
// policy, priority flags, host count, capacity, load and alive mask — and
// checks what must hold for every input: no host over capacity, no dead
// host chosen, the same input gives the same assignment, and spread from
// equal load stays balanced to within one container over alive hosts.
func TestPlaceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 2000; iter++ {
		policy := Placements[rng.Intn(len(Placements))]
		hosts := 1 + rng.Intn(8)
		hostCap := 1 + rng.Intn(6)
		equal := rng.Intn(4) == 0
		base := rng.Intn(hostCap + 1)
		load := make([]int, hosts)
		alive := make([]bool, hosts)
		for h := range load {
			load[h] = base
			if !equal {
				load[h] = rng.Intn(hostCap + 1)
			}
			alive[h] = rng.Intn(4) != 0
		}
		hi := make([]bool, rng.Intn(2*hosts*hostCap+1))
		for i := range hi {
			hi[i] = rng.Intn(3) == 0
		}
		free := 0
		for h := range load {
			if alive[h] {
				free += hostCap - load[h]
			}
		}
		input := fmt.Sprintf("iter %d: %v hi=%v load=%v alive=%v cap=%d", iter, policy, hi, load, alive, hostCap)

		got, err := place(policy, hi, load, alive, hostCap)
		if len(hi) > free {
			if err == nil || !strings.Contains(err.Error(), "exceed surviving capacity") {
				t.Fatalf("%s: %d containers over %d free slots: got %v, want loud capacity error", input, len(hi), free, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", input, err)
		}
		again, _ := place(policy, hi, load, alive, hostCap)
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("%s: same input, different assignments %v vs %v", input, got, again)
		}
		count := append([]int(nil), load...)
		for i, h := range got {
			if h < 0 || h >= hosts || !alive[h] {
				t.Fatalf("%s: container %d placed on dead or missing host %d", input, i, h)
			}
			count[h]++
		}
		for h, n := range count {
			if n > hostCap {
				t.Fatalf("%s: host %d holds %d, cap %d", input, h, n, hostCap)
			}
		}
		if policy == PlaceSpread && equal {
			lo, hiN := -1, -1
			for h, n := range count {
				if !alive[h] {
					continue
				}
				if lo < 0 || n < lo {
					lo = n
				}
				if n > hiN {
					hiN = n
				}
			}
			if lo >= 0 && hiN-lo > 1 {
				t.Fatalf("%s: spread from equal load ended unbalanced %v", input, count)
			}
		}
	}
}

func TestParsePlacement(t *testing.T) {
	for _, p := range Placements {
		got, err := ParsePlacement(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePlacement(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePlacement("bogus"); err == nil {
		t.Fatal("unknown placement must error")
	}
}

func TestTokenBucket(t *testing.T) {
	b := NewTokenBucket(Admission{Rate: 1_000_000, Burst: 4, HiReserve: 0.5})
	// Burst of 4; best-effort stops at the reserve floor of 2.
	if !b.Admit(0, false) || !b.Admit(0, false) {
		t.Fatal("best-effort should drain down to the reserve")
	}
	if b.Admit(0, false) {
		t.Fatal("best-effort must stop at the hi reserve")
	}
	if !b.Admit(0, true) || !b.Admit(0, true) {
		t.Fatal("high priority should use the reserve")
	}
	if b.Admit(0, true) {
		t.Fatal("empty bucket must refuse even high priority")
	}
	// 1M tokens/s → 1 token per µs of virtual time.
	if !b.Admit(2*sim.Microsecond, true) {
		t.Fatal("refill must restore tokens")
	}
	if b.DeniedLo != 1 || b.DeniedHi != 1 || b.AdmittedHi != 3 || b.AdmittedLo != 2 {
		t.Fatalf("counter mismatch: %+v", b)
	}
	var nilBucket *TokenBucket
	if !nilBucket.Admit(0, false) {
		t.Fatal("nil bucket admits everything")
	}
}

func TestSnapshotLookup(t *testing.T) {
	s := NewSnapshot(7, map[uint16]Route{
		SvcPort(0): {Host: 3, Hi: true},
		CliPort(0): {Host: 1, Hi: true, ToClient: true},
	})
	if s.Version != 7 || s.Len() != 2 {
		t.Fatalf("snapshot meta wrong: v%d len %d", s.Version, s.Len())
	}
	if r, ok := s.Lookup(SvcPort(0)); !ok || r.Host != 3 || !r.Hi || r.ToClient {
		t.Fatalf("service route wrong: %+v %v", r, ok)
	}
	if _, ok := s.Lookup(9999); ok {
		t.Fatal("unknown port must miss")
	}
}

// checkDense requires a snapshot's Lookup to agree with its route map on
// every port.
func checkDense(t *testing.T, what string, s *Snapshot) {
	t.Helper()
	for p := 0; p <= 65535; p++ {
		want, wantOK := s.routes[uint16(p)]
		got, ok := s.Lookup(uint16(p))
		if got != want || ok != wantOK {
			t.Fatalf("%s: Lookup(%d) = %+v %v, route map has %+v %v", what, p, got, ok, want, wantOK)
		}
	}
}

// TestSnapshotDenseMatchesMap checks the dense per-hop tables against the
// route map on every port: for random tables mixing flow ports with ports
// outside both dense ranges, and for the snapshots a cluster publishes at
// build time and after a recovery migration.
func TestSnapshotDenseMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checkDense(t, "empty", NewSnapshot(1, map[uint16]Route{}))
	for trial := 0; trial < 10; trial++ {
		routes := map[uint16]Route{}
		for k := rng.Intn(300); k > 0; k-- {
			var port uint16
			switch rng.Intn(4) {
			case 0:
				port = SvcPort(rng.Intn(1000))
			case 1:
				port = CliPort(rng.Intn(1000))
			case 2:
				port = uint16(rng.Intn(SvcPortBase))
			default:
				port = uint16(rng.Intn(1 << 16))
			}
			routes[port] = Route{Host: rng.Intn(16), Hi: rng.Intn(2) == 0, ToClient: rng.Intn(2) == 0}
		}
		checkDense(t, fmt.Sprintf("random table %d", trial), NewSnapshot(1, routes))
	}

	c, err := New(recoverySmallConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	checkDense(t, "initial", c.Snapshot())
	if err := c.Run(30*sim.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	if v := c.Snapshot().Version; v != 2 {
		t.Fatalf("snapshot version after the scripted crash = %d, want 2", v)
	}
	checkDense(t, "after migration", c.Snapshot())
}

// --- full cluster ---

func testHostSpec() testbed.Spec {
	return testbed.Spec{
		Mode:       prio.ModeSync,
		CStates:    cpu.C1,
		AppCStates: cpu.C1,
		NIC: nic.Config{
			RxUsecs:      8 * sim.Microsecond,
			RxFrames:     32,
			AdaptiveIdle: 100 * sim.Microsecond,
			GRO:          true,
		},
	}
}

// testSpecs builds a small mixed workload: one flood per two hosts, every
// fifth remaining container a high-priority echo, the rest best-effort
// echoes.
func testSpecs(hosts, n int) []ContainerSpec {
	specs := make([]ContainerSpec, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i < hosts/2:
			specs = append(specs, ContainerSpec{Flood: true, Rate: 20_000, Ingress: i % hosts})
		case i%5 == 0:
			specs = append(specs, ContainerSpec{Hi: true, Rate: 2_000, Ingress: -1})
		default:
			specs = append(specs, ContainerSpec{Rate: 500, Ingress: -1})
		}
	}
	return specs
}

func smallConfig(seed uint64) Config {
	return Config{
		Hosts:     4,
		Placement: PlacePriority,
		Seed:      seed,
		Host:      testHostSpec(),
		Specs:     testSpecs(4, 24),
		Admission: &Admission{Rate: 200_000, Burst: 64, HiReserve: 0.25},
		Fabric:    FabricConfig{Racks: 2},
		Warmup:    2 * sim.Millisecond,
	}
}

func TestClusterRunsAndConserves(t *testing.T) {
	c, err := New(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(20*sim.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	hiSent, hiRecv, loSent, loRecv, _, floodRecv := c.FlowCounts()
	if hiSent == 0 || hiRecv == 0 || loSent == 0 || loRecv == 0 || floodRecv == 0 {
		t.Fatalf("flows idle: hi %d/%d lo %d/%d flood %d", hiSent, hiRecv, loSent, loRecv, floodRecv)
	}
	if err := c.CheckInvariants(false); err != nil {
		t.Fatalf("mid-run invariants: %v", err)
	}
	// The ToRs must have carried traffic, and with two racks the spine
	// must have seen cross-rack flows.
	for _, tor := range c.Tors {
		if tor.RxFrames == 0 {
			t.Fatalf("%s saw no frames", tor.Name)
		}
	}
	if c.Spine == nil || c.Spine.RxFrames == 0 {
		t.Fatal("spine saw no cross-rack frames")
	}
	if n := c.Terms(); n.Injected == 0 {
		t.Fatal("no frames entered the fabric")
	}
	// Settle and apply the zero-leak assertion.
	if err := c.Settle(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants after settle: %v", err)
	}
	if got := c.fabricInFlight(); got != 0 {
		t.Fatalf("settled fabric holds %d frames", got)
	}
}

// clusterFingerprint captures everything a deterministic run must
// reproduce: per-flow delivered sample sequences, the conservation terms,
// flow counts, and the merged metrics exposition.
type clusterFingerprint struct {
	samples [][]uint64
	terms   testbed.ClusterTerms
	counts  [6]uint64
	metrics string
	windows uint64
}

func runFingerprint(t *testing.T, cfg Config, workers int) clusterFingerprint {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([][]uint64, len(c.Flows))
	for _, f := range c.Flows {
		if f.PP == nil {
			continue
		}
		i := f.Index
		f.PP.OnSample = func(seq uint64, lat sim.Time) {
			samples[i] = append(samples[i], seq, uint64(lat))
		}
	}
	if err := c.Run(20*sim.Millisecond, workers); err != nil {
		t.Fatal(err)
	}
	var regs []*obs.Registry
	for _, p := range c.Pipes() {
		regs = append(regs, p.M)
	}
	hiS, hiR, loS, loR, flS, flR := c.FlowCounts()
	return clusterFingerprint{
		samples: samples,
		terms:   c.Terms(),
		counts:  [6]uint64{hiS, hiR, loS, loR, flS, flR},
		metrics: obs.PrometheusText(obs.MergeRegistries(regs...)),
		windows: c.Group.Windows,
	}
}

func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	base := runFingerprint(t, smallConfig(3), 1)
	if len(base.metrics) == 0 {
		t.Fatal("no metrics collected")
	}
	for _, workers := range []int{2, 4} {
		got := runFingerprint(t, smallConfig(3), workers)
		if !reflect.DeepEqual(got.samples, base.samples) {
			t.Fatalf("workers=%d: delivered sample sequences diverge", workers)
		}
		if !reflect.DeepEqual(got.terms, base.terms) {
			t.Fatalf("workers=%d: terms diverge: %+v vs %+v", workers, got.terms, base.terms)
		}
		if got.counts != base.counts {
			t.Fatalf("workers=%d: flow counts diverge: %v vs %v", workers, got.counts, base.counts)
		}
		if got.metrics != base.metrics {
			t.Fatalf("workers=%d: merged metrics diverge", workers)
		}
		if got.windows != base.windows {
			t.Fatalf("workers=%d: window schedule diverges: %d vs %d", workers, got.windows, base.windows)
		}
	}
}

func TestClusterAdmissionShedsLowFirst(t *testing.T) {
	cfg := smallConfig(5)
	// Starve the buckets so the floods overrun admission.
	cfg.Admission = &Admission{Rate: 5_000, Burst: 16, HiReserve: 0.5}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(20*sim.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	var deniedLo, admittedHi uint64
	for _, n := range c.Nodes {
		deniedLo += n.Bucket.DeniedLo
		admittedHi += n.Bucket.AdmittedHi
	}
	if deniedLo == 0 {
		t.Fatal("starved buckets refused no best-effort frames")
	}
	if admittedHi == 0 {
		t.Fatal("the hi reserve admitted no high-priority frames")
	}
	if c.AdmissionDenied() == 0 {
		t.Fatal("AdmissionDenied lost the refusals")
	}
	if err := c.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
}

func TestClusterWithFaultsStaysDeterministic(t *testing.T) {
	cfg := smallConfig(9)
	cfg.Host.Fault = &fault.Config{Rate: 0.2}
	base := runFingerprint(t, cfg, 1)
	got := runFingerprint(t, cfg, 3)
	if !reflect.DeepEqual(got.samples, base.samples) {
		t.Fatal("faulted cluster diverges across worker counts")
	}
	if got.metrics != base.metrics {
		t.Fatal("faulted cluster metrics diverge across worker counts")
	}
}

func TestClusterFaultPlanesInjectPerHost(t *testing.T) {
	cfg := smallConfig(11)
	cfg.Host.Fault = &fault.Config{Rate: 0.3}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(30*sim.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	var injected uint64
	seen := map[uint64]bool{}
	for _, n := range c.Nodes {
		if n.Plane == nil {
			t.Fatalf("%s built without a plane", n.Name)
		}
		st := n.Plane.Stats()
		sum := st.Injected()
		injected += sum
		seen[sum] = true
	}
	if injected == 0 {
		t.Fatal("no faults injected anywhere")
	}
	if len(seen) < 2 {
		t.Fatal("per-host fault streams look identical — seeds not derived per host")
	}
	if err := c.Settle(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants after faulted settle: %v", err)
	}
}

func TestClusterFabricObservability(t *testing.T) {
	c, err := New(smallConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10*sim.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	var regs []*obs.Registry
	for _, p := range c.Pipes() {
		regs = append(regs, p.M)
	}
	merged := obs.MergeRegistries(regs...)
	if merged.CounterValue("prism_fabric_frames_total", obs.Labels{}) == 0 {
		t.Fatal("no fabric spans recorded")
	}
	text := obs.PrometheusText(merged)
	for _, want := range []string{`shard="host00"`, `shard="tor00"`, `shard="spine"`, "prism_fabric_frames_total"} {
		if !strings.Contains(text, want) {
			t.Fatalf("merged exposition lacks %s", want)
		}
	}
	max, mean := c.FabricUtilization(c.Horizon())
	if max <= 0 || mean <= 0 || max > 1 || mean > max {
		t.Fatalf("implausible fabric utilization max=%v mean=%v", max, mean)
	}
}

func TestClusterFabricOverflowShedsLow(t *testing.T) {
	// A slow, shallow egress port: the flood's bursts overflow it, and
	// high-priority arrivals evict queued best-effort frames.
	cfg := Config{
		Hosts:     2,
		Placement: PlacePack,
		Seed:      17,
		Host:      testHostSpec(),
		Specs: []ContainerSpec{
			{Name: "bg", Flood: true, Rate: 60_000, Ingress: 1},
			{Name: "hi", Hi: true, Rate: 20_000, Ingress: 1},
		},
		Fabric: FabricConfig{Racks: 1, LinkGbps: 0.5, QueueCap: 2},
		Warmup: sim.Millisecond,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(20*sim.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	dropped, shed := c.FabricDrops()
	if dropped == 0 {
		t.Fatal("saturated port dropped nothing")
	}
	if shed == 0 {
		t.Fatal("high-priority arrivals shed no best-effort frames")
	}
	if err := c.CheckInvariants(false); err != nil {
		t.Fatalf("invariants with fabric drops: %v", err)
	}
	if err := c.Settle(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants after lossy run: %v", err)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := New(Config{Hosts: 2}); err == nil {
		t.Fatal("empty spec list must error")
	}
	cfg := smallConfig(1)
	cfg.Hosts = 1
	cfg.HostCap = 4
	if _, err := New(cfg); err == nil {
		t.Fatal("over-capacity placement must error")
	}
}
