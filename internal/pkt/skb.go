package pkt

import (
	"encoding/binary"
	"fmt"

	"prism/internal/sim"
)

// SKB mirrors the kernel's sk_buff: the frame bytes plus the metadata that
// travels with the packet through every processing stage. The same SKB
// instance is passed from device to device, exactly as in the kernel, so
// per-packet state (notably the PRISM priority bit, §IV-A) is computed once
// and reused.
type SKB struct {
	// Data holds the frame as currently visible to the stack. Decap
	// re-slices it; the outer headers are "stripped" without copying.
	Data []byte

	// HighPriority is the binary priority variable PRISM adds to sk_buff.
	// It is assigned exactly once, when the SKB is allocated during the
	// physical device's poll (the paper's mlx5e_napi_poll analogue).
	HighPriority bool

	// Priority is the multi-level generalization (§VII-3): 0 is best
	// effort; levels 1..netdev.MaxPriorityLevels are increasingly urgent.
	// HighPriority == (Priority > 0).
	Priority int

	// Flow is the inner transport flow, filled by ParseHeaders. Zero until
	// the frame is parsed.
	Flow FlowKey

	// Encapsulated marks a frame ParseHeaders recognised as VXLAN; Decap
	// clears it when it strips the outer headers.
	Encapsulated bool

	// Arrived is when the NIC DMA'd the frame into the ring.
	Arrived sim.Time

	// Delivered is when the payload reached the application socket buffer;
	// zero while in flight.
	Delivered sim.Time

	// ID is a unique per-simulation packet identifier for conservation and
	// trace checks.
	ID uint64

	// Stage counts processing stages completed so far (for traces/tests).
	Stage int

	// GROSegs is the number of wire frames coalesced into this SKB by GRO
	// (1 for an unmerged packet). Downstream stages process a merged SKB
	// once — the whole point of GRO.
	GROSegs int

	// Payload is the inner frame's transport payload, filled by
	// ParseHeaders. It aliases Data: valid exactly as long as the frame
	// is, cleared when the SKB is recycled.
	Payload []byte

	// Pooling state (see pool.go). frame is the pooled buffer backing
	// Data; owner is the SKBPool Free returns the SKB to; gen counts
	// recycles; pooled guards against double-put.
	frame  *Frame
	owner  *SKBPool
	gen    uint32
	pooled bool
	// parsed marks Flow, Encapsulated and Payload as filled from Data.
	parsed bool
	// waitOpen marks waitAt as live (see WaitCursor); it sits in the
	// padding after parsed.
	waitOpen bool
	// waitAt is the observation wait cursor: when the packet's previous
	// observed lifecycle event ended.
	waitAt sim.Time
}

// WaitCursor returns the observation wait cursor — when the packet's
// previous observed lifecycle event ended — and whether it is open. The
// gap from the cursor to a stage's start is the packet's queue wait
// before that stage. A fresh or recycled SKB starts closed.
func (s *SKB) WaitCursor() (sim.Time, bool) { return s.waitAt, s.waitOpen }

// SetWaitCursor opens the cursor, or advances it, to t.
func (s *SKB) SetWaitCursor(t sim.Time) { s.waitAt, s.waitOpen = t, true }

// CloseWaitCursor closes the cursor at the end of the packet's observed
// lifecycle and reports whether it was open.
func (s *SKB) CloseWaitCursor() bool {
	open := s.waitOpen
	s.waitOpen = false
	return open
}

// ParseHeaders parses Data with Parse on the first call and caches the
// result, as the kernel sets skb->network_header once at receive; later
// calls return at once. Every stage reads headers through it: frame bytes
// never change after DMA. Failures are not cached (the caller drops).
func (s *SKB) ParseHeaders() error {
	if s.parsed {
		return nil
	}
	h, err := Parse(s.Data)
	if err != nil {
		return err
	}
	s.parsed = true
	s.Flow, s.Encapsulated = h.Flow, h.Encapsulated
	s.Payload = h.Payload(s.Data)
	return nil
}

// Decap strips the outer headers of a parsed encapsulated frame, ending the
// inner frame where the validated outer UDP datagram ends. The cache stays
// valid: Payload aliases the same bytes.
func (s *SKB) Decap() {
	const udpOff = EthHeaderLen + IPv4HeaderLen
	s.Data = s.Data[VXLANOverhead : udpOff+int(binary.BigEndian.Uint16(s.Data[udpOff+4:]))]
	s.Encapsulated = false
}

// Len returns the current frame length in bytes.
func (s *SKB) Len() int { return len(s.Data) }

// String summarises the SKB for traces.
func (s *SKB) String() string {
	prio := "lo"
	if s.HighPriority {
		prio = "HI"
	}
	return fmt.Sprintf("skb#%d[%s %s len=%d stage=%d]", s.ID, prio, s.Flow, s.Len(), s.Stage)
}

// UDPFrameSpec describes a plain (non-encapsulated) Ethernet+IPv4+UDP frame.
type UDPFrameSpec struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     IPv4
	SrcPort, DstPort uint16
	TOS              uint8
	ID               uint16
	Payload          []byte
}

// sized returns dst resized to n bytes, reusing its backing array when the
// capacity allows (the pooled hot path) and allocating only on overflow.
func sized(dst []byte, n int) []byte {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]byte, n)
}

// BuildUDPFrame encodes the spec into a complete Ethernet frame.
func BuildUDPFrame(sp UDPFrameSpec) []byte { return AppendUDPFrame(nil, sp) }

// AppendUDPFrame is BuildUDPFrame writing into dst's backing array when it
// has the capacity, allocating only on overflow. It returns the encoded
// frame.
func AppendUDPFrame(dst []byte, sp UDPFrameSpec) []byte {
	total := EthHeaderLen + IPv4HeaderLen + UDPHeaderLen + len(sp.Payload)
	b := sized(dst, total)
	off := PutEthernet(b, EthernetHeader{Dst: sp.DstMAC, Src: sp.SrcMAC, EtherType: EtherTypeIPv4})
	off += PutIPv4(b[off:], IPv4Header{
		TOS:      sp.TOS,
		TotalLen: uint16(IPv4HeaderLen + UDPHeaderLen + len(sp.Payload)),
		ID:       sp.ID,
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      sp.SrcIP,
		Dst:      sp.DstIP,
	})
	off += PutUDP(b[off:], UDPHeader{
		SrcPort: sp.SrcPort,
		DstPort: sp.DstPort,
		Length:  uint16(UDPHeaderLen + len(sp.Payload)),
	})
	copy(b[off:], sp.Payload)
	return b
}

// TCPFrameSpec describes a plain Ethernet+IPv4+TCP frame.
type TCPFrameSpec struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     IPv4
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	ID               uint16
	Payload          []byte
}

// BuildTCPFrame encodes the spec into a complete Ethernet frame.
func BuildTCPFrame(sp TCPFrameSpec) []byte { return AppendTCPFrame(nil, sp) }

// AppendTCPFrame is BuildTCPFrame writing into dst's backing array when it
// has the capacity, allocating only on overflow.
func AppendTCPFrame(dst []byte, sp TCPFrameSpec) []byte {
	total := EthHeaderLen + IPv4HeaderLen + TCPHeaderLen + len(sp.Payload)
	b := sized(dst, total)
	off := PutEthernet(b, EthernetHeader{Dst: sp.DstMAC, Src: sp.SrcMAC, EtherType: EtherTypeIPv4})
	off += PutIPv4(b[off:], IPv4Header{
		TotalLen: uint16(IPv4HeaderLen + TCPHeaderLen + len(sp.Payload)),
		ID:       sp.ID,
		TTL:      64,
		Protocol: ProtoTCP,
		Src:      sp.SrcIP,
		Dst:      sp.DstIP,
	})
	off += PutTCP(b[off:], TCPHeader{
		SrcPort: sp.SrcPort,
		DstPort: sp.DstPort,
		Seq:     sp.Seq,
		Ack:     sp.Ack,
		Flags:   sp.Flags,
		Window:  65535,
	})
	copy(b[off:], sp.Payload)
	return b
}

// VXLANSpec describes the outer encapsulation of an overlay frame.
type VXLANSpec struct {
	OuterSrcMAC, OuterDstMAC MAC
	OuterSrcIP, OuterDstIP   IPv4
	SrcPort                  uint16 // outer UDP source port (flow entropy)
	VNI                      uint32
	ID                       uint16
}

// Encapsulate wraps inner (a complete Ethernet frame) in outer
// Ethernet+IPv4+UDP+VXLAN headers, as the VXLAN egress path does.
func Encapsulate(sp VXLANSpec, inner []byte) []byte { return EncapInto(nil, sp, inner) }

// EncapInto is Encapsulate writing into dst's backing array when it has the
// capacity, allocating only on overflow. inner must not alias dst.
func EncapInto(dst []byte, sp VXLANSpec, inner []byte) []byte {
	outerLen := EthHeaderLen + IPv4HeaderLen + UDPHeaderLen + VXLANHeaderLen
	b := sized(dst, outerLen+len(inner))
	off := PutEthernet(b, EthernetHeader{Dst: sp.OuterDstMAC, Src: sp.OuterSrcMAC, EtherType: EtherTypeIPv4})
	off += PutIPv4(b[off:], IPv4Header{
		TotalLen: uint16(IPv4HeaderLen + UDPHeaderLen + VXLANHeaderLen + len(inner)),
		ID:       sp.ID,
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      sp.OuterSrcIP,
		Dst:      sp.OuterDstIP,
	})
	off += PutUDP(b[off:], UDPHeader{
		SrcPort: sp.SrcPort,
		DstPort: VXLANPort,
		Length:  uint16(UDPHeaderLen + VXLANHeaderLen + len(inner)),
	})
	off += PutVXLAN(b[off:], VXLANHeader{VNI: sp.VNI})
	copy(b[off:], inner)
	return b
}

// Decapsulate validates the outer Ethernet+IPv4+UDP+VXLAN headers of frame
// with Parse's checks and returns the VNI and the inner Ethernet frame (a
// sub-slice, no copy).
func Decapsulate(frame []byte) (vni uint32, inner []byte, err error) {
	if !IsVXLAN(frame) {
		return 0, nil, errParseNotVXLAN
	}
	end, err := vxlanInnerEnd(frame)
	if err != nil {
		return 0, nil, err
	}
	return binary.BigEndian.Uint32(frame[VXLANOverhead-4:]) >> 8, frame[VXLANOverhead:end], nil
}

// IsVXLAN reports whether frame looks like a VXLAN-encapsulated packet,
// without fully validating it. This is the cheap early check Parse uses to
// decide whether a frame goes to the tunnel endpoint.
func IsVXLAN(frame []byte) bool {
	if len(frame) < EthHeaderLen+IPv4HeaderLen+UDPHeaderLen+VXLANHeaderLen {
		return false
	}
	// EtherType IPv4, protocol UDP, destination port VXLAN — straight byte
	// compares; this runs once per frame in the stage-1 poll.
	if uint16(frame[12])<<8|uint16(frame[13]) != EtherTypeIPv4 {
		return false
	}
	if frame[EthHeaderLen+9] != ProtoUDP {
		return false
	}
	dport := uint16(frame[EthHeaderLen+IPv4HeaderLen+2])<<8 | uint16(frame[EthHeaderLen+IPv4HeaderLen+3])
	return dport == VXLANPort
}

// ParseFlow extracts the transport flow key from a plain (not
// decapsulated) Ethernet frame with Parse's checks of the plain frame. For
// non-IPv4 or non-UDP/TCP frames it returns an error.
func ParseFlow(frame []byte) (FlowKey, error) {
	h := Headers{InnerEnd: len(frame)}
	err := h.parseInner(frame)
	return h.Flow, err
}
