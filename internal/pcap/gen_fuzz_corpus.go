//go:build ignore

// gen_fuzz_corpus regenerates the committed FuzzPcapParse seed corpus under
// testdata/fuzz/FuzzPcapParse/ in Go's native corpus encoding. The seeds
// cover captures in both magics, an empty capture, and the ways a stream
// goes wrong: truncation inside a record, an oversized caplen, a bad magic
// and a foreign link type.
//
// Usage: go run gen_fuzz_corpus.go
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"prism/internal/pcap"
	"prism/internal/pkt"
	"prism/internal/sim"
)

func main() {
	udp := pkt.BuildUDPFrame(pkt.UDPFrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.IPv4{10, 0, 0, 1}, DstIP: pkt.IPv4{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 20001, Payload: []byte("pcap-seed"),
	})
	vxlan := pkt.Encapsulate(pkt.VXLANSpec{
		OuterSrcIP: pkt.IPv4{192, 168, 1, 1}, OuterDstIP: pkt.IPv4{192, 168, 1, 2},
		SrcPort: 49152, VNI: 256,
	}, udp)

	var nanos bytes.Buffer
	w := pcap.NewWriter(&nanos)
	must(w.WritePacket(1500*sim.Microsecond+3, udp))
	must(w.WritePacket(2*sim.Second+891, vxlan))
	capture := nanos.Bytes()

	// The same records with microsecond timestamps, in the classic magic.
	micros := append([]byte(nil), capture...)
	binary.LittleEndian.PutUint32(micros, pcap.MagicMicros)
	for off := 24; off < len(micros); {
		sub := binary.LittleEndian.Uint32(micros[off+4:])
		binary.LittleEndian.PutUint32(micros[off+4:], sub/1000)
		off += 16 + int(binary.LittleEndian.Uint32(micros[off+8:]))
	}

	var empty bytes.Buffer
	if _, err := pcap.NewStreamWriter(&empty); err != nil {
		fail(err)
	}

	oversized := append([]byte(nil), capture[:24+16]...)
	binary.LittleEndian.PutUint32(oversized[24+8:], pcap.SnapLen+1)
	badMagic := append([]byte(nil), capture...)
	binary.LittleEndian.PutUint32(badMagic, 0xdeadbeef)
	badLink := append([]byte(nil), capture...)
	binary.LittleEndian.PutUint32(badLink[20:], 101)

	seeds := [][]byte{
		capture,                  // nanosecond magic, two records
		micros,                   // classic microsecond magic
		empty.Bytes(),            // header only
		capture[:len(capture)-5], // truncated payload
		capture[:24+10],          // truncated record header
		oversized,                // caplen past the snap length
		badMagic,
		badLink,
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzPcapParse")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	for i, seed := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			fail(err)
		}
	}
	fmt.Printf("%s: %d seeds\n", dir, len(seeds))
}

func must(err error) {
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
