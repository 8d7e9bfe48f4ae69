package cluster

import (
	"reflect"
	"strings"
	"testing"

	"prism/internal/fault"
	rec "prism/internal/recover"
	"prism/internal/sim"
)

// --- token bucket degraded-mode refill ---

func TestTokenBucketRefillAtDepletionBoundary(t *testing.T) {
	// 1M tokens/s = exactly one token per microsecond of virtual time.
	b := NewTokenBucket(Admission{Rate: 1_000_000, Burst: 4})
	for i := 0; i < 4; i++ {
		if !b.Admit(0, false) {
			t.Fatalf("admit %d of the initial burst refused", i)
		}
	}
	if b.Admit(0, false) {
		t.Fatal("empty bucket admitted a frame")
	}
	// Exactly one refill interval later the bucket holds exactly one
	// token: the admit at the boundary must succeed, and the very next
	// one at the same instant must not.
	if !b.Admit(sim.Microsecond, false) {
		t.Fatal("boundary refill token refused")
	}
	if b.Admit(sim.Microsecond, false) {
		t.Fatal("second admit at the refill boundary succeeded")
	}
}

func TestTokenBucketSetFactor(t *testing.T) {
	b := NewTokenBucket(Admission{Rate: 1_000_000, Burst: 8})
	for i := 0; i < 8; i++ {
		b.Admit(0, false)
	}
	// 4µs at the full rate accrued 4 tokens; SetFactor must settle them
	// before halving the rate.
	b.SetFactor(4*sim.Microsecond, 0.5)
	for i := 0; i < 4; i++ {
		if !b.Admit(4*sim.Microsecond, false) {
			t.Fatalf("token %d accrued before SetFactor lost", i)
		}
	}
	if b.Admit(4*sim.Microsecond, false) {
		t.Fatal("settled bucket over-admitted")
	}
	// From here refill runs at 500k/s: 2µs buys exactly one token.
	if !b.Admit(6*sim.Microsecond, false) {
		t.Fatal("degraded refill produced no token after 2µs")
	}
	if b.Admit(6*sim.Microsecond, false) {
		t.Fatal("degraded refill produced more than one token in 2µs")
	}
	// Restoring factor 1 returns to the configured base rate.
	b.SetFactor(6*sim.Microsecond, 1)
	if !b.Admit(7*sim.Microsecond, false) {
		t.Fatal("restored rate produced no token after 1µs")
	}
	var nilBucket *TokenBucket
	nilBucket.SetFactor(0, 0.5) // must not panic
}

// --- snapshot swap ---

func TestSwapSnapshotVersionMonotonic(t *testing.T) {
	c, err := New(smallConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	if v := c.Snapshot().Version; v != 1 {
		t.Fatalf("fresh cluster snapshot version = %d, want 1", v)
	}
	routes := c.Snapshot().cloneRoutes()
	if err := c.SwapSnapshot(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if err := c.SwapSnapshot(NewSnapshot(1, routes)); err == nil {
		t.Fatal("same-version snapshot accepted")
	}
	if err := c.SwapSnapshot(NewSnapshot(0, routes)); err == nil {
		t.Fatal("older snapshot accepted")
	}
	if err := c.SwapSnapshot(NewSnapshot(2, routes)); err != nil {
		t.Fatal(err)
	}
	if v := c.Snapshot().Version; v != 2 {
		t.Fatalf("swap not visible: version %d", v)
	}
	if err := c.SwapSnapshot(NewSnapshot(2, routes)); err == nil ||
		!strings.Contains(err.Error(), "must increase") {
		t.Fatalf("equal-version re-swap: got %v", err)
	}
}

// --- scripted host crash, end to end ---

func recoverySmallConfig(seed uint64) Config {
	cfg := smallConfig(seed)
	cfg.Recovery = &RecoveryConfig{
		Script:           rec.Script{{Kind: rec.HostCrash, Host: 1, At: 8 * sim.Millisecond}},
		RetryMax:         3,
		DegradeAdmission: true,
	}
	return cfg
}

func TestClusterScriptedCrashRecovers(t *testing.T) {
	c, err := New(recoverySmallConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	var orphaned []int
	for i, h := range c.Assignment {
		if h == 1 {
			orphaned = append(orphaned, i)
		}
	}
	if len(orphaned) == 0 {
		t.Fatal("test setup: no flows placed on host 1")
	}
	if err := c.Run(30*sim.Millisecond, 2); err != nil {
		t.Fatal(err)
	}

	dets := c.Detections()
	if len(dets) != 1 || dets[0].Host != 1 {
		t.Fatalf("detections = %+v, want exactly host 1", dets)
	}
	if dets[0].DownAt != 8*sim.Millisecond {
		t.Fatalf("DownAt = %d, want the scripted crash time", dets[0].DownAt)
	}
	lat := dets[0].SuspectAt - dets[0].DownAt
	rc := c.Cfg.Recovery.withDefaults()
	if lat < rc.SuspectAfter || lat > rc.SuspectAfter+rc.HeartbeatEvery+rc.CheckEvery {
		t.Fatalf("detection latency %v outside [timeout, timeout+beat+tick]", lat)
	}

	migs := c.Migrations()
	if len(migs) != len(orphaned) {
		t.Fatalf("migrated %d flows, want all %d orphans", len(migs), len(orphaned))
	}
	if v := c.Snapshot().Version; v != 2 {
		t.Fatalf("snapshot version after one recovery = %d, want 2", v)
	}
	for _, m := range migs {
		if m.OldHost != 1 || m.NewHost == 1 {
			t.Fatalf("migration %+v did not leave host 1", m)
		}
		if c.Assignment[m.Flow] != m.NewHost {
			t.Fatalf("assignment not updated for flow %d", m.Flow)
		}
		rt, ok := c.Snapshot().Lookup(SvcPort(m.Flow))
		if !ok || rt.Host != m.NewHost {
			t.Fatalf("live route for flow %d = %+v, want host %d", m.Flow, rt, m.NewHost)
		}
	}
	// The new replicas must actually serve: at least one migrated flow's
	// service count grew past its at-swap value.
	served := false
	for _, mt := range c.Terms().Migrations {
		if mt.Served > mt.ServedAtSwap {
			served = true
		}
	}
	if !served {
		t.Fatal("no migrated flow served anything after the swap")
	}
	if rx, _ := c.CrashDrops(); rx == 0 {
		t.Fatal("no frames were absorbed at the dead host's wire")
	}
	if err := c.Settle(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants across a migration: %v", err)
	}
}

func TestClusterRecoveryDeterministicAcrossWorkers(t *testing.T) {
	base := runFingerprint(t, recoverySmallConfig(23), 1)
	for _, workers := range []int{2, 4} {
		got := runFingerprint(t, recoverySmallConfig(23), workers)
		if !reflect.DeepEqual(got.samples, base.samples) {
			t.Fatalf("workers=%d: delivered sample sequences diverge", workers)
		}
		if !reflect.DeepEqual(got.terms, base.terms) {
			t.Fatalf("workers=%d: terms diverge", workers)
		}
		if got.metrics != base.metrics {
			t.Fatalf("workers=%d: merged metrics diverge", workers)
		}
		if got.windows != base.windows {
			t.Fatalf("workers=%d: window schedule diverges: %d vs %d", workers, got.windows, base.windows)
		}
	}
}

// --- plane-driven crash ---

func TestClusterPlaneDrivenCrash(t *testing.T) {
	cfg := smallConfig(36)
	cfg.Host.Fault = &fault.Config{
		Rate:       1,
		Classes:    fault.ClassHostCrash,
		CrashEvery: 60 * sim.Millisecond,
	}
	cfg.Recovery = &RecoveryConfig{}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(40*sim.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	var crashes uint64
	for _, n := range c.Nodes {
		crashes += n.Plane.Stats().HostCrashes
	}
	if crashes == 0 {
		t.Fatal("fault planes injected no crashes")
	}
	if len(c.Detections()) == 0 {
		t.Fatal("plane-driven crash went undetected")
	}
	if err := c.Settle(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants after plane-driven crashes: %v", err)
	}
}

// --- ToR uplink failure ---

func TestClusterTorLinkDownWindow(t *testing.T) {
	cfg := smallConfig(41)
	cfg.Recovery = &RecoveryConfig{
		Script: rec.Script{{
			Kind: rec.TorLinkDown, Tor: 1,
			At: 6 * sim.Millisecond, Until: 12 * sim.Millisecond,
		}},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(25*sim.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	if n := c.torUp[1].DownDropped; n == 0 {
		t.Fatal("severed uplink dropped nothing at the ToR's end")
	}
	if n := c.spineDown[1].DownDropped; n == 0 {
		t.Fatal("the spine's mirrored end dropped nothing")
	}
	// A fabric partition is not a host failure: heartbeats ride the
	// out-of-band control network, so nothing is suspected or migrated.
	if len(c.Detections()) != 0 || len(c.Migrations()) != 0 {
		t.Fatalf("tor-link failure triggered recovery: %d detections, %d migrations",
			len(c.Detections()), len(c.Migrations()))
	}
	if v := c.Snapshot().Version; v != 1 {
		t.Fatalf("tor-link failure swapped the snapshot to v%d", v)
	}
	// After the restore the partition heals: the spine keeps forwarding.
	if c.Spine.RxFrames == 0 {
		t.Fatal("no cross-rack frames at all")
	}
	if err := c.Settle(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants after a link-down window: %v", err)
	}
}

// --- full-cluster recovery failure is loud ---

func TestClusterRecoveryOverCapacityFailsLoudly(t *testing.T) {
	cfg := smallConfig(43)
	cfg.Hosts = 2
	cfg.HostCap = 13
	cfg.Specs = testSpecs(2, 24) // 24 containers on 2 hosts of 13: no survivor can hold both shares
	cfg.Fabric = FabricConfig{Racks: 1}
	cfg.Recovery = &RecoveryConfig{
		Script: rec.Script{{Kind: rec.HostCrash, Host: 0, At: 5 * sim.Millisecond}},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(20*sim.Millisecond, 1)
	if err == nil || !strings.Contains(err.Error(), "exceed surviving capacity") {
		t.Fatalf("over-capacity recovery: got %v, want loud capacity error", err)
	}
}

func TestClusterRecoveryScriptValidated(t *testing.T) {
	cfg := smallConfig(47)
	cfg.Recovery = &RecoveryConfig{
		Script: rec.Script{{Kind: rec.HostCrash, Host: 99, At: sim.Millisecond}},
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("out-of-range scripted host accepted")
	}
}

// --- priority eviction with no clean survivor ---

// TestClusterRecoveryPriorityAllDumpHosts crashes the best-effort dump
// host of a two-host priority cluster. Its orphans re-pack onto the only
// survivor, which already serves every prioritized flow, so the eviction
// step finds no clean host: the hi flows must stay where they are, with
// no error, and the epoch must still swap.
func TestClusterRecoveryPriorityAllDumpHosts(t *testing.T) {
	cfg := smallConfig(53)
	cfg.Hosts = 2
	cfg.HostCap = 8
	cfg.Specs = nil
	for i := 0; i < 8; i++ {
		// Six best-effort echoes pack onto host 0; the two hi echoes then
		// spread to the emptier host 1.
		cfg.Specs = append(cfg.Specs, ContainerSpec{Hi: i >= 6, Rate: 1_000, Ingress: 1})
	}
	cfg.Fabric = FabricConfig{Racks: 1}
	cfg.Recovery = &RecoveryConfig{
		Script: rec.Script{{Kind: rec.HostCrash, Host: 0, At: 5 * sim.Millisecond}},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 0, 0, 0, 1, 1}
	if !reflect.DeepEqual(c.Assignment, want) {
		t.Fatalf("test setup: placement %v, want %v", c.Assignment, want)
	}
	if err := c.Run(20*sim.Millisecond, 1); err != nil {
		t.Fatalf("recovery with no clean survivor errored: %v", err)
	}
	if len(c.Detections()) != 1 {
		t.Fatalf("detections = %+v, want exactly host 0", c.Detections())
	}
	migs := c.Migrations()
	if len(migs) != 6 {
		t.Fatalf("migrated %d flows, want the 6 best-effort orphans", len(migs))
	}
	for _, m := range migs {
		if cfg.Specs[m.Flow].Hi {
			t.Fatalf("hi flow %d evicted with no clean host to take it: %+v", m.Flow, m)
		}
	}
	for i := 6; i < 8; i++ {
		if c.Assignment[i] != 1 {
			t.Fatalf("hi flow %d moved to host %d, want it left on host 1", i, c.Assignment[i])
		}
	}
	if v := c.Snapshot().Version; v != 2 {
		t.Fatalf("snapshot version = %d, want the recovery epoch 2", v)
	}
	if err := c.Settle(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(true); err != nil {
		t.Fatalf("strict invariants: %v", err)
	}
}
