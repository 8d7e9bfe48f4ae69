package pkt

import (
	"encoding/binary"
	"fmt"

	"prism/internal/sim"
)

// ProbeLen is the minimum payload length carrying a latency probe: an
// 8-byte sequence number followed by an 8-byte virtual send timestamp —
// the same trick sockperf uses to compute per-packet latency.
const ProbeLen = 16

// PutProbe writes seq and sentAt at the start of payload, which must be at
// least ProbeLen bytes.
func PutProbe(payload []byte, seq uint64, sentAt sim.Time) {
	_ = payload[ProbeLen-1]
	binary.BigEndian.PutUint64(payload[0:8], seq)
	binary.BigEndian.PutUint64(payload[8:16], uint64(sentAt))
}

// ParseProbe extracts the probe fields written by PutProbe.
func ParseProbe(payload []byte) (seq uint64, sentAt sim.Time, err error) {
	if len(payload) < ProbeLen {
		return 0, 0, fmt.Errorf("pkt: payload too short for probe: %d bytes", len(payload))
	}
	return binary.BigEndian.Uint64(payload[0:8]),
		sim.Time(binary.BigEndian.Uint64(payload[8:16])), nil
}

// TransportPayload returns the application payload of a plain (already
// decapsulated) UDP or TCP frame, with Parse's checks of the plain frame.
func TransportPayload(frame []byte) ([]byte, error) {
	h := Headers{InnerEnd: len(frame)}
	if err := h.parseInner(frame); err != nil {
		return nil, err
	}
	return h.Payload(frame), nil
}
