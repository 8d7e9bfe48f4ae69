//go:build pooldebug

package pkt

// PoolDebug reports whether use-after-put poisoning is compiled in.
const PoolDebug = true

// poisonByte fills freed buffers. 0xDB reads as garbage everywhere a parser
// looks: ethertype 0xDBDB is not IPv4, lengths are absurd, probe timestamps
// are in the far future — so a use-after-put fails loudly instead of
// silently reprocessing stale bytes.
const poisonByte = 0xDB

func poisonFrame(f *Frame) {
	b := f.B[:cap(f.B)]
	for i := range b {
		b[i] = poisonByte
	}
}

// poisonWire poisons a wire frame being Put on a WireFrames list and
// panics if the list already holds its backing array: a double Put would
// hand one buffer to two encoders.
func poisonWire(held [][]byte, b []byte) {
	b = b[:cap(b)]
	for _, h := range held {
		if &h[:cap(h)][0] == &b[0] {
			panic("pkt: wire frame double-put")
		}
	}
	for i := range b {
		b[i] = poisonByte
	}
}

// poisonedData is what a freed SKB's Data points at: any read returns
// poison, and the headroom is far too short for a real frame, so parsers
// reject it immediately.
var poisonedData = []byte{poisonByte, poisonByte, poisonByte, poisonByte}

func poisonSKB(s *SKB) {
	s.Data = poisonedData
	s.ID = ^uint64(0)
	s.Stage = -1
}
