package pkt

import "errors"

// Headers is the result of parsing a received frame once: where the inner
// Ethernet frame lies, the inner transport flow, and where the transport
// payload lies. Offsets index the frame that was parsed.
type Headers struct {
	Encapsulated           bool // a VXLAN frame whose outer headers validated
	InnerOff, InnerEnd     int  // the inner Ethernet frame (the whole frame if not encapsulated)
	Flow                   FlowKey
	PayloadOff, PayloadEnd int // the inner frame's transport payload
}

// Payload returns the transport payload of frame, the frame h was parsed
// from (a sub-slice, no copy).
func (h *Headers) Payload(frame []byte) []byte { return frame[h.PayloadOff:h.PayloadEnd] }

// Static sentinels: a rejected frame costs no allocation.
var (
	errParseNotVXLAN = errors.New("pkt: not a VXLAN frame")
	errParseVXLAN    = errors.New("pkt: outer UDP length or VXLAN I flag bad")
	errParseEthernet = errors.New("pkt: frame too short or not IPv4")
	errParseIPv4     = errors.New("pkt: ipv4 bad version, header length, checksum or total length")
	errParseL4       = errors.New("pkt: not UDP or TCP, or bad UDP length or TCP header")
)

// Parse parses a received frame in one pass: the outer VXLAN headers when
// IsVXLAN recognises them, then the inner Ethernet, IPv4 and UDP or TCP
// headers. It applies the checks of the layer parsers (ParseEthernet,
// ParseIPv4, ParseUDP, ParseTCP, ParseVXLAN and Decapsulate) and accepts
// exactly the frames their chain accepts — except a TCP segment whose IPv4
// total length is shorter than its IP and TCP headers, which it rejects as
// tcp_v4_rcv does. It builds no intermediate header values.
func Parse(frame []byte) (Headers, error) {
	h := Headers{InnerEnd: len(frame)}
	if IsVXLAN(frame) {
		end, err := vxlanInnerEnd(frame)
		if err != nil {
			return Headers{}, err
		}
		h.Encapsulated, h.InnerOff, h.InnerEnd = true, VXLANOverhead, end
	}
	if err := h.parseInner(frame); err != nil {
		return Headers{}, err
	}
	return h, nil
}

// vxlanInnerEnd validates the outer headers of a frame IsVXLAN recognised
// and returns where its inner frame ends: at the end of the outer UDP
// datagram, not of the wire frame, whose minimum-size pad is not inner.
func vxlanInnerEnd(frame []byte) (int, error) {
	if _, err := ipv4TotalLen(frame[EthHeaderLen:]); err != nil {
		return 0, err
	}
	const udpOff = EthHeaderLen + IPv4HeaderLen
	ulen := int(frame[udpOff+4])<<8 | int(frame[udpOff+5])
	if ulen > len(frame)-udpOff || ulen < UDPHeaderLen+VXLANHeaderLen || frame[udpOff+UDPHeaderLen]&vxlanFlagVNI == 0 {
		return 0, errParseVXLAN
	}
	return udpOff + ulen, nil
}

// parseInner parses the plain Ethernet+IPv4+UDP/TCP frame at
// frame[h.InnerOff:h.InnerEnd], filling in the flow and payload bounds.
func (h *Headers) parseInner(frame []byte) error {
	b := frame[h.InnerOff:h.InnerEnd]
	if len(b) < EthHeaderLen || b[12] != EtherTypeIPv4>>8 || b[13] != EtherTypeIPv4&0xff {
		return errParseEthernet
	}
	total, err := ipv4TotalLen(b[EthHeaderLen:])
	if err != nil {
		return err
	}
	const ipOff, tOff = EthHeaderLen, EthHeaderLen + IPv4HeaderLen
	h.Flow.Proto = b[ipOff+9]
	h.Flow.SrcIP = IPv4(b[ipOff+12 : ipOff+16])
	h.Flow.DstIP = IPv4(b[ipOff+16 : ipOff+20])
	var pOff, pEnd int
	switch h.Flow.Proto {
	case ProtoUDP:
		if len(b)-tOff < UDPHeaderLen {
			return errParseL4
		}
		ulen := int(b[tOff+4])<<8 | int(b[tOff+5])
		if ulen > len(b)-tOff || ulen < UDPHeaderLen {
			return errParseL4
		}
		pOff, pEnd = tOff+UDPHeaderLen, tOff+ulen
	case ProtoTCP:
		if len(b)-tOff < TCPHeaderLen || b[tOff+12]>>4 != TCPHeaderLen/4 || total < IPv4HeaderLen+TCPHeaderLen {
			return errParseL4
		}
		pOff, pEnd = tOff+TCPHeaderLen, EthHeaderLen+total
	default:
		return errParseL4
	}
	h.Flow.SrcPort = uint16(b[tOff])<<8 | uint16(b[tOff+1])
	h.Flow.DstPort = uint16(b[tOff+2])<<8 | uint16(b[tOff+3])
	h.PayloadOff, h.PayloadEnd = h.InnerOff+pOff, h.InnerOff+pEnd
	return nil
}

// ipv4TotalLen validates the option-less IPv4 header at the start of b the
// way ParseIPv4 does and returns its total length.
func ipv4TotalLen(b []byte) (int, error) {
	if len(b) < IPv4HeaderLen || b[0] != 0x45 || ipChecksum20(b) != 0 {
		return 0, errParseIPv4
	}
	if total := int(b[2])<<8 | int(b[3]); total <= len(b) && total >= IPv4HeaderLen {
		return total, nil
	}
	return 0, errParseIPv4
}

// ValidatedDstPort returns the inner transport destination port of a frame
// Parse has already accepted, read at its fixed offset: Parse admits only
// option-less IPv4 headers, so the port lies 36 bytes into the inner frame,
// which starts VXLANOverhead bytes in when IsVXLAN matches. It checks
// nothing — on a frame Parse would reject the result is meaningless — so it
// suits frames that are immutable from a validating hop to this read.
func ValidatedDstPort(frame []byte) uint16 {
	off := EthHeaderLen + IPv4HeaderLen + 2
	if IsVXLAN(frame) {
		off += VXLANOverhead
	}
	return uint16(frame[off])<<8 | uint16(frame[off+1])
}
