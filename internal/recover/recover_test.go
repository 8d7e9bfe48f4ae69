package recover

import (
	"reflect"
	"strings"
	"testing"

	"prism/internal/sim"
)

func TestEventKindRoundTrip(t *testing.T) {
	for _, k := range []EventKind{HostCrash, TorLinkDown} {
		got, err := ParseEventKind(k.String())
		if err != nil {
			t.Fatalf("ParseEventKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("round trip %v -> %q -> %v", k, k.String(), got)
		}
	}
	if _, err := ParseEventKind("meteor_strike"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestScriptValidate(t *testing.T) {
	ms := sim.Millisecond
	ok := Script{
		{Kind: HostCrash, Host: 3, At: 10 * ms, Until: 25 * ms},
		{Kind: TorLinkDown, Tor: 1, At: 5 * ms}, // never restores
	}
	if err := ok.Validate(8, 2); err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
	cases := []struct {
		name  string
		s     Script
		racks int
		want  string
	}{
		{"host out of range", Script{{Kind: HostCrash, Host: 8, At: ms}}, 2, "out of range"},
		{"negative host", Script{{Kind: HostCrash, Host: -1, At: ms}}, 2, "out of range"},
		{"tor out of range", Script{{Kind: TorLinkDown, Tor: 2, At: ms}}, 2, "out of range"},
		{"single rack", Script{{Kind: TorLinkDown, Tor: 0, At: ms}}, 1, "multi-rack"},
		{"zero time", Script{{Kind: HostCrash, Host: 0}}, 2, "must be positive"},
		{"recovery before failure", Script{{Kind: HostCrash, Host: 0, At: 2 * ms, Until: ms}}, 2, "not after"},
		{"bad kind", Script{{Kind: EventKind(9), At: ms}}, 2, "unknown event kind"},
	}
	for _, tc := range cases {
		err := tc.s.Validate(8, tc.racks)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestDetectorSuspectsAfterTimeout(t *testing.T) {
	ms := sim.Millisecond
	d := NewDetector(3, ms)
	d.Beat(0, 10*ms)
	d.Beat(1, 10*ms)
	d.Beat(2, 9*ms)
	if got := d.Suspects(10 * ms); got != nil {
		t.Fatalf("fresh hosts suspected: %v", got)
	}
	// Host 2's beat is now 2ms old; 0 and 1 are exactly at the timeout
	// (strict comparison keeps them alive).
	got := d.Suspects(11 * ms)
	if !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Suspects = %v, want [2]", got)
	}
	if !d.Suspected(2) || d.Suspected(0) {
		t.Fatal("Suspected flags wrong")
	}
	// Suspicion is reported once, and is permanent even if beats resume.
	if got := d.Suspects(11 * ms); len(got) != 0 {
		t.Fatalf("host 2 re-reported: %v", got)
	}
	d.Beat(2, 12*ms)
	if !d.Suspected(2) {
		t.Fatal("suspicion cleared by a late beat")
	}
}

// TestDetectorFalseSuspectBoundary pins the strict-timeout contract: a
// heartbeat arriving one tick before the deadline must NOT be suspected,
// and one tick past it must.
func TestDetectorFalseSuspectBoundary(t *testing.T) {
	timeout := sim.Millisecond
	d := NewDetector(2, timeout)
	beat := 5 * sim.Millisecond
	d.Beat(0, beat)
	d.Beat(1, beat-1) // one tick staler

	now := beat + timeout // host 0 exactly at the deadline
	got := d.Suspects(now)
	if !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("at the deadline: Suspects = %v, want [1] (host 0 is exactly at timeout, not past it)", got)
	}
	if got := d.Suspects(now + 1); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("one past the deadline: Suspects = %v, want [0]", got)
	}
}

func TestDetectorStaleBeatIgnored(t *testing.T) {
	d := NewDetector(1, sim.Millisecond)
	d.Beat(0, 10*sim.Millisecond)
	d.Beat(0, 4*sim.Millisecond)
	if d.LastBeat(0) != 10*sim.Millisecond {
		t.Fatalf("stale beat regressed LastBeat to %v", d.LastBeat(0))
	}
}

func TestBackoffDelay(t *testing.T) {
	b := Backoff{Base: 200 * sim.Microsecond, Max: 2 * sim.Millisecond}
	want := []sim.Time{
		200 * sim.Microsecond,  // attempt 1
		400 * sim.Microsecond,  // 2
		800 * sim.Microsecond,  // 3
		1600 * sim.Microsecond, // 4
		2 * sim.Millisecond,    // 5 clamped
		2 * sim.Millisecond,    // 6 clamped
	}
	for i, w := range want {
		if got := b.Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := b.Delay(0); got != b.Base {
		t.Errorf("Delay(0) = %v, want base", got)
	}
}

func TestCapacityFactor(t *testing.T) {
	cases := []struct {
		alive, total int
		want         float64
	}{
		{8, 8, 1}, {7, 8, 0.875}, {0, 8, 0}, {4, 0, 1}, {9, 8, 1}, {-1, 8, 0},
	}
	for _, tc := range cases {
		if got := CapacityFactor(tc.alive, tc.total); got != tc.want {
			t.Errorf("CapacityFactor(%d,%d) = %v, want %v", tc.alive, tc.total, got, tc.want)
		}
	}
}
