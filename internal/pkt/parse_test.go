package pkt

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

var errRefTCPShort = errors.New("ref: tcp total length shorter than ip+tcp headers")

// refParse is the reference Parse is checked against: the layer parsers
// composed step by step — IsVXLAN, the outer IPv4/UDP/VXLAN headers, then
// the inner Ethernet/IPv4/UDP-or-TCP headers and payload bounds — with a
// TCP segment whose total length is shorter than its headers rejected.
func refParse(frame []byte) (inner []byte, flow FlowKey, payload []byte, err error) {
	inner = frame
	if IsVXLAN(frame) {
		const udpOff = EthHeaderLen + IPv4HeaderLen
		if _, err := ParseIPv4(frame[EthHeaderLen:]); err != nil {
			return nil, FlowKey{}, nil, err
		}
		u, err := ParseUDP(frame[udpOff:])
		if err != nil {
			return nil, FlowKey{}, nil, err
		}
		if u.Length < UDPHeaderLen+VXLANHeaderLen {
			return nil, FlowKey{}, nil, errors.New("ref: outer udp too short for vxlan")
		}
		if _, err := ParseVXLAN(frame[udpOff+UDPHeaderLen:]); err != nil {
			return nil, FlowKey{}, nil, err
		}
		inner = frame[VXLANOverhead : udpOff+int(u.Length)]
	}
	eth, err := ParseEthernet(inner)
	if err != nil || eth.EtherType != EtherTypeIPv4 {
		return nil, FlowKey{}, nil, errors.New("ref: not ipv4")
	}
	ip, err := ParseIPv4(inner[EthHeaderLen:])
	if err != nil {
		return nil, FlowKey{}, nil, err
	}
	const tOff = EthHeaderLen + IPv4HeaderLen
	flow = FlowKey{SrcIP: ip.Src, DstIP: ip.Dst, Proto: ip.Protocol}
	switch ip.Protocol {
	case ProtoUDP:
		u, err := ParseUDP(inner[tOff:])
		if err != nil {
			return nil, FlowKey{}, nil, err
		}
		flow.SrcPort, flow.DstPort = u.SrcPort, u.DstPort
		return inner, flow, inner[tOff+UDPHeaderLen : tOff+int(u.Length)], nil
	case ProtoTCP:
		tc, err := ParseTCP(inner[tOff:])
		if err != nil {
			return nil, FlowKey{}, nil, err
		}
		if ip.TotalLen < IPv4HeaderLen+TCPHeaderLen {
			return nil, FlowKey{}, nil, errRefTCPShort
		}
		flow.SrcPort, flow.DstPort = tc.SrcPort, tc.DstPort
		return inner, flow, inner[tOff+TCPHeaderLen : EthHeaderLen+int(ip.TotalLen)], nil
	}
	return nil, FlowKey{}, nil, errors.New("ref: no transport")
}

// shortTCPFrame is a TCP frame with a valid header checksum whose IPv4
// total length (30) is shorter than its IP and TCP headers (40).
func shortTCPFrame() []byte {
	f := fuzzTCP()
	ip, err := ParseIPv4(f[EthHeaderLen:])
	if err != nil {
		panic(err)
	}
	ip.TotalLen = 30
	PutIPv4(f[EthHeaderLen:], ip)
	return f
}

func fuzzTCP() []byte {
	return BuildTCPFrame(TCPFrameSpec{
		SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2},
		SrcIP: IPv4{10, 0, 0, 1}, DstIP: IPv4{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 5201, Seq: 1, Ack: 2, Flags: TCPAck,
		Payload: []byte("tcp-seed-payload"),
	})
}

func FuzzParse(f *testing.F) {
	f.Add(fuzzOuter())
	f.Add(fuzzInner())
	f.Add(fuzzTCP())
	f.Add(shortTCPFrame())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		h, err := Parse(frame)
		inner, flow, payload, rerr := refParse(frame)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Parse err = %v, reference err = %v", err, rerr)
		}
		// The layer API agrees: Decapsulate and ParseFlow accept the
		// outer and inner frame of everything the reference accepts.
		if rerr == nil {
			chainInner := frame
			if IsVXLAN(frame) {
				_, in, derr := Decapsulate(frame)
				if derr != nil {
					t.Fatalf("Decapsulate rejects a frame the reference accepts: %v", derr)
				}
				chainInner = in
			}
			if _, ferr := ParseFlow(chainInner); ferr != nil {
				t.Fatalf("ParseFlow rejects a frame the reference accepts: %v", ferr)
			}
		}
		if err != nil {
			return
		}
		if h.Encapsulated != IsVXLAN(frame) {
			t.Fatalf("Encapsulated = %v for IsVXLAN = %v", h.Encapsulated, IsVXLAN(frame))
		}
		gotInner, gotPayload := frame[h.InnerOff:h.InnerEnd], h.Payload(frame)
		if !bytes.Equal(gotInner, inner) || !sameBacking(frame, gotInner) || (len(inner) > 0 && &gotInner[0] != &inner[0]) {
			t.Fatalf("inner frame [%d:%d] differs from the reference", h.InnerOff, h.InnerEnd)
		}
		if h.Flow != flow {
			t.Fatalf("flow = %v, reference %v", h.Flow, flow)
		}
		if !bytes.Equal(gotPayload, payload) || !sameBacking(frame, gotPayload) {
			t.Fatalf("payload [%d:%d] differs from the reference", h.PayloadOff, h.PayloadEnd)
		}
		if h.PayloadOff < h.InnerOff || h.PayloadEnd > h.InnerEnd {
			t.Fatalf("payload [%d:%d] escapes the inner frame [%d:%d]", h.PayloadOff, h.PayloadEnd, h.InnerOff, h.InnerEnd)
		}
		// The fabric's trusted read agrees on every accepted frame.
		if got := ValidatedDstPort(frame); got != h.Flow.DstPort {
			t.Fatalf("ValidatedDstPort = %d, Parse says %d", got, h.Flow.DstPort)
		}
	})
}

// TestValidatedDstPortMatchesParse encodes randomized frames — plain and
// VXLAN, UDP and TCP, with varied addresses, ports and payload sizes —
// and checks the fixed-offset port read against Parse on each. FuzzParse
// checks the same on its corpus.
func TestValidatedDstPortMatchesParse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	addr := func() IPv4 {
		return IPv4{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
	}
	mac := func() MAC { return MAC{2, byte(rng.Intn(256)), 0, 0, byte(rng.Intn(256)), byte(rng.Intn(256))} }
	for i := 0; i < 2000; i++ {
		port := uint16(rng.Intn(1 << 16))
		payload := make([]byte, rng.Intn(200))
		rng.Read(payload)
		var frame []byte
		if rng.Intn(2) == 0 {
			frame = BuildUDPFrame(UDPFrameSpec{SrcMAC: mac(), DstMAC: mac(), SrcIP: addr(), DstIP: addr(),
				SrcPort: uint16(rng.Intn(1 << 16)), DstPort: port, ID: uint16(rng.Intn(1 << 16)), Payload: payload})
		} else {
			frame = BuildTCPFrame(TCPFrameSpec{SrcMAC: mac(), DstMAC: mac(), SrcIP: addr(), DstIP: addr(),
				SrcPort: uint16(rng.Intn(1 << 16)), DstPort: port, Seq: rng.Uint32(), Flags: TCPAck, Payload: payload})
		}
		if rng.Intn(2) == 0 {
			frame = Encapsulate(VXLANSpec{OuterSrcMAC: mac(), OuterDstMAC: mac(), OuterSrcIP: addr(), OuterDstIP: addr(),
				SrcPort: uint16(49152 + rng.Intn(16384)), VNI: uint32(rng.Intn(1 << 24))}, frame)
		}
		h, err := Parse(frame)
		if err != nil {
			t.Fatalf("frame %d: encoder output rejected: %v", i, err)
		}
		if got := ValidatedDstPort(frame); got != h.Flow.DstPort || got != port {
			t.Fatalf("frame %d: ValidatedDstPort = %d, Parse %d, encoded %d", i, got, h.Flow.DstPort, port)
		}
	}
}

func TestParseOverlayUDP(t *testing.T) {
	frame := fuzzOuter()
	h, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Encapsulated || !bytes.Equal(frame[h.InnerOff:h.InnerEnd], fuzzInner()) {
		t.Fatalf("inner frame not recovered: %+v", h)
	}
	want := FlowKey{SrcIP: IPv4{10, 0, 0, 1}, DstIP: IPv4{10, 0, 0, 2}, Proto: ProtoUDP, SrcPort: 40000, DstPort: 11111}
	if h.Flow != want || string(h.Payload(frame)) != "fuzz-seed-payload" {
		t.Fatalf("flow %v payload %q", h.Flow, h.Payload(frame))
	}
}

func TestParseTCP(t *testing.T) {
	frame := fuzzTCP()
	h, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.Encapsulated || h.InnerOff != 0 || h.InnerEnd != len(frame) {
		t.Fatalf("plain frame reported encapsulated: %+v", h)
	}
	if h.Flow.Proto != ProtoTCP || h.Flow.DstPort != 5201 || string(h.Payload(frame)) != "tcp-seed-payload" {
		t.Fatalf("flow %v payload %q", h.Flow, h.Payload(frame))
	}
}

// TestParseRejectsShortTCP is the regression for a TCP frame whose IPv4
// total length is shorter than its IP and TCP headers: the layer parsers
// accept every header, and TransportPayload used to slice past the end of
// the datagram and panic. Parse, ParseFlow and TransportPayload reject it,
// as tcp_v4_rcv drops it.
func TestParseRejectsShortTCP(t *testing.T) {
	frame := shortTCPFrame()
	if _, err := ParseIPv4(frame[EthHeaderLen:]); err != nil {
		t.Fatalf("ParseIPv4 rejects the frame (%v); the regression needs a valid header", err)
	}
	if _, err := ParseTCP(frame[EthHeaderLen+IPv4HeaderLen:]); err != nil {
		t.Fatalf("ParseTCP rejects the frame (%v); the regression needs a valid header", err)
	}
	if _, err := ParseFlow(frame); err == nil {
		t.Error("ParseFlow accepted a TCP frame with total length 30")
	}
	if _, err := Parse(frame); err == nil {
		t.Error("Parse accepted a TCP frame with total length 30")
	}
	if _, err := TransportPayload(frame); err == nil {
		t.Error("TransportPayload accepted a TCP frame with total length 30")
	}
	encap := Encapsulate(VXLANSpec{SrcPort: 1, VNI: 1}, frame)
	if _, err := Parse(encap); err == nil {
		t.Error("Parse accepted an encapsulated TCP frame with total length 30")
	}
}

func TestParseZeroAlloc(t *testing.T) {
	frames := [][]byte{fuzzOuter(), fuzzInner(), fuzzTCP(), shortTCPFrame(), {1, 2, 3}}
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range frames {
			_, _ = Parse(f)
		}
	})
	if allocs != 0 {
		t.Fatalf("Parse allocates %v times per run, want 0", allocs)
	}
}

// TestSKBParseHeadersCaches checks the SKB accessor: it fills the cache
// once, Decap keeps it valid, and SetFrame and the pool reset clear it.
func TestSKBParseHeadersCaches(t *testing.T) {
	var pool SKBPool
	var frames FramePool
	outer := fuzzOuter()
	fr := frames.Get(len(outer))
	copy(fr.B, outer)
	s := pool.Get()
	s.SetFrame(fr)
	if err := s.ParseHeaders(); err != nil {
		t.Fatal(err)
	}
	if !s.Encapsulated || s.Flow.DstPort != 11111 || string(s.Payload) != "fuzz-seed-payload" {
		t.Fatalf("cache not filled: %v enc=%v payload %q", s.Flow, s.Encapsulated, s.Payload)
	}
	// A cached SKB never re-reads Data: scribbling the bytes after the
	// parse (which no stage does) leaves the cached result in place.
	s.Data[EthHeaderLen+10] ^= 0xff
	if err := s.ParseHeaders(); err != nil {
		t.Fatalf("cached SKB re-parsed: %v", err)
	}
	s.Data[EthHeaderLen+10] ^= 0xff
	s.Decap()
	if s.Encapsulated || !bytes.Equal(s.Data, fuzzInner()) || string(s.Payload) != "fuzz-seed-payload" {
		t.Fatalf("decap: enc=%v data %x payload %q", s.Encapsulated, s.Data, s.Payload)
	}
	if err := s.ParseHeaders(); err != nil || s.Flow.DstPort != 11111 {
		t.Fatalf("cache invalid after decap: %v %v", err, s.Flow)
	}

	garbage := frames.Get(3)
	s.SetFrame(garbage)
	if err := s.ParseHeaders(); err == nil {
		t.Fatal("SetFrame kept the previous frame's parse")
	}
	s.Free()
	s = pool.Get()
	s.Data = []byte{1, 2, 3}
	if err := s.ParseHeaders(); err == nil {
		t.Fatal("a recycled SKB kept its previous parse")
	}
}

func BenchmarkParse(b *testing.B) {
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"vxlan-udp", fuzzOuter()},
		{"udp", fuzzInner()},
		{"tcp", fuzzTCP()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(c.frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
