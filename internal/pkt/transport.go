package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Transport header lengths.
const (
	UDPHeaderLen = 8
	TCPHeaderLen = 20 // without options
)

// UDPHeader is a UDP header. The checksum is left zero (legal over IPv4);
// the simulated stack relies on the IPv4 header checksum plus the
// link-level integrity the simulation guarantees.
type UDPHeader struct {
	SrcPort uint16
	DstPort uint16
	Length  uint16 // header + payload
}

// PutUDP encodes h at the start of b and returns the bytes written.
func PutUDP(b []byte, h UDPHeader) int {
	_ = b[UDPHeaderLen-1]
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Length)
	binary.BigEndian.PutUint16(b[6:8], 0)
	return UDPHeaderLen
}

// Static sentinels keep ParseUDP allocation-free on rejected input and
// small enough to inline.
var (
	errUDPShort     = errors.New("pkt: udp datagram too short")
	errUDPBadLength = errors.New("pkt: udp bad length")
)

// ParseUDP decodes a UDP header from the start of b.
func ParseUDP(b []byte) (UDPHeader, error) {
	if len(b) < UDPHeaderLen {
		return UDPHeader{}, errUDPShort
	}
	h := UDPHeader{
		SrcPort: uint16(b[0])<<8 | uint16(b[1]),
		DstPort: uint16(b[2])<<8 | uint16(b[3]),
		Length:  uint16(b[4])<<8 | uint16(b[5]),
	}
	if int(h.Length) > len(b) || h.Length < UDPHeaderLen {
		return UDPHeader{}, errUDPBadLength
	}
	return h, nil
}

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
)

// TCPHeader is a TCP header without options.
type TCPHeader struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
}

// PutTCP encodes h at the start of b and returns the bytes written.
func PutTCP(b []byte, h TCPHeader) int {
	_ = b[TCPHeaderLen-1]
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = 5 << 4 // data offset: 5 words
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	binary.BigEndian.PutUint16(b[16:18], 0) // checksum: see UDPHeader note
	binary.BigEndian.PutUint16(b[18:20], 0) // urgent
	return TCPHeaderLen
}

// ParseTCP decodes a TCP header from the start of b.
func ParseTCP(b []byte) (TCPHeader, error) {
	if len(b) < TCPHeaderLen {
		return TCPHeader{}, fmt.Errorf("pkt: tcp segment too short: %d bytes", len(b))
	}
	if off := int(b[12]>>4) * 4; off != TCPHeaderLen {
		return TCPHeader{}, fmt.Errorf("pkt: tcp unsupported data offset %d", off)
	}
	var h TCPHeader
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:16])
	return h, nil
}
