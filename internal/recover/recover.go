// Package recover holds the deterministic failure-detection and recovery
// primitives the cluster's live control plane is built from: scripted
// fail-stop events (host crashes, ToR-uplink failures), a heartbeat-based
// failure detector whose latency is measured in simulated virtual time,
// and the retry/backoff and capacity math the degraded-mode admission
// path uses. Re-placement is not here: the cluster re-places a dead
// host's containers with its own placer, the routine build-time
// placement runs.
//
// Everything here is pure data and pure functions — no engines, no
// events, no RNG — so the package is trivially deterministic and the
// cluster layer decides when (at which barrier epoch) each piece runs.
package recover

import (
	"fmt"
	"sort"

	"prism/internal/sim"
)

// EventKind selects a scripted failure class.
type EventKind int

const (
	// HostCrash fail-stops a host at the wire: nothing enters or leaves
	// it until the event's recovery time. The host's internal state is
	// preserved (a crash-restart with warm caches, not a reimage).
	HostCrash EventKind = iota
	// TorLinkDown severs a rack's ToR→spine uplink: frames queued at or
	// arriving for the uplink are dropped until the link restores.
	TorLinkDown
)

// String names the kind as scenario files spell it.
func (k EventKind) String() string {
	switch k {
	case HostCrash:
		return "host_crash"
	case TorLinkDown:
		return "tor_link_down"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// ParseEventKind resolves a kind by its String name.
func ParseEventKind(name string) (EventKind, error) {
	switch name {
	case "host_crash":
		return HostCrash, nil
	case "tor_link_down":
		return TorLinkDown, nil
	}
	return 0, fmt.Errorf("recover: unknown event kind %q (valid: host_crash, tor_link_down)", name)
}

// Event is one scripted deterministic failure.
type Event struct {
	Kind EventKind
	// Host is the crashed host (HostCrash); Tor the rack whose spine
	// uplink fails (TorLinkDown).
	Host int
	Tor  int
	// At is the failure time; Until the recovery time (0 = never — the
	// failure lasts the rest of the run).
	At    sim.Time
	Until sim.Time
}

// Script is a deterministic failure timeline. Order does not matter; the
// cluster schedules each event at its own time.
type Script []Event

// Validate checks every event against the cluster's shape. hosts and
// racks are the topology bounds; racks < 2 means the fabric has no spine
// uplinks to sever.
func (s Script) Validate(hosts, racks int) error {
	for i, ev := range s {
		switch ev.Kind {
		case HostCrash:
			if ev.Host < 0 || ev.Host >= hosts {
				return fmt.Errorf("recover: script[%d]: host %d out of range [0,%d)", i, ev.Host, hosts)
			}
		case TorLinkDown:
			if racks < 2 {
				return fmt.Errorf("recover: script[%d]: tor_link_down needs a multi-rack fabric (got %d rack)", i, racks)
			}
			if ev.Tor < 0 || ev.Tor >= racks {
				return fmt.Errorf("recover: script[%d]: tor %d out of range [0,%d)", i, ev.Tor, racks)
			}
		default:
			return fmt.Errorf("recover: script[%d]: unknown event kind %d", i, int(ev.Kind))
		}
		if ev.At <= 0 {
			return fmt.Errorf("recover: script[%d]: failure time must be positive, got %v", i, ev.At)
		}
		if ev.Until != 0 && ev.Until <= ev.At {
			return fmt.Errorf("recover: script[%d]: recovery %v not after failure %v", i, ev.Until, ev.At)
		}
	}
	return nil
}

// Detector is the heartbeat failure detector. The cluster pushes every
// host's latest heartbeat timestamp at each barrier checkpoint and asks
// for newly suspected hosts; a host is suspected when its last heartbeat
// is strictly older than the timeout. Suspicion is permanent — recovery
// cordons the host, there is no failback.
type Detector struct {
	timeout   sim.Time
	last      []sim.Time
	suspected []bool
}

// NewDetector builds a detector over hosts with the given suspect
// timeout.
func NewDetector(hosts int, timeout sim.Time) *Detector {
	return &Detector{
		timeout:   timeout,
		last:      make([]sim.Time, hosts),
		suspected: make([]bool, hosts),
	}
}

// Beat records a heartbeat from host at time at. Stale beats (older than
// the recorded one) are ignored, so push order does not matter.
func (d *Detector) Beat(host int, at sim.Time) {
	if at > d.last[host] {
		d.last[host] = at
	}
}

// Suspects returns the hosts newly suspected as of now, in ascending
// order. A host whose last heartbeat arrived exactly timeout ago is NOT
// suspected (the comparison is strict), so a heartbeat landing one tick
// before the deadline keeps the host alive.
func (d *Detector) Suspects(now sim.Time) []int {
	var out []int
	for h := range d.last {
		if d.suspected[h] {
			continue
		}
		if now-d.last[h] > d.timeout {
			d.suspected[h] = true
			out = append(out, h)
		}
	}
	sort.Ints(out)
	return out
}

// Suspected reports whether host has ever been suspected.
func (d *Detector) Suspected(host int) bool { return d.suspected[host] }

// LastBeat returns host's most recent recorded heartbeat.
func (d *Detector) LastBeat(host int) sim.Time { return d.last[host] }

// Backoff is the degraded-mode admission retry schedule: exponential
// from Base, clamped at Max.
type Backoff struct {
	Base sim.Time
	Max  sim.Time
}

// Delay returns the wait before retry attempt n (1-based): Base·2^(n-1)
// clamped to Max. Attempts below 1 are treated as 1.
func (b Backoff) Delay(attempt int) sim.Time {
	if attempt < 1 {
		attempt = 1
	}
	d := b.Base
	for i := 1; i < attempt; i++ {
		d *= 2
		if b.Max > 0 && d >= b.Max {
			return b.Max
		}
	}
	if b.Max > 0 && d > b.Max {
		return b.Max
	}
	return d
}

// CapacityFactor is the surviving-capacity fraction the degraded-mode
// token buckets scale their refill by: alive hosts over total, clamped
// to [0, 1].
func CapacityFactor(alive, total int) float64 {
	if total <= 0 || alive >= total {
		return 1
	}
	if alive <= 0 {
		return 0
	}
	return float64(alive) / float64(total)
}
