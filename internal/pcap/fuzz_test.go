package pcap

import (
	"bytes"
	"encoding/binary"
	"testing"

	"prism/internal/sim"
)

// pcapScript reads fuzz input as a list of records to write: each record
// takes an 8-byte little-endian timestamp (reduced into the 32-bit-seconds
// range the format holds), a length byte and up to that many frame bytes.
func pcapScript(data []byte) []Record {
	var recs []Record
	for len(data) >= 9 {
		at := sim.Time(binary.LittleEndian.Uint64(data) % (1 << 32 * uint64(sim.Second)))
		n := min(int(data[8]), len(data)-9)
		recs = append(recs, Record{At: at, Frame: data[9 : 9+n]})
		data = data[9+n:]
	}
	return recs
}

// writeBoth writes recs with Writer and with StreamWriter, requires the two
// streams to be identical, and returns one.
func writeBoth(t *testing.T, recs []Record) []byte {
	t.Helper()
	var a, b bytes.Buffer
	w := NewWriter(&a)
	sw, err := NewStreamWriter(&b)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.WritePacket(r.At, r.Frame); err != nil {
			t.Fatal(err)
		}
		if err := sw.WritePacket(r.At, r.Frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("Writer and StreamWriter streams differ:\n%x\n%x", a.Bytes(), b.Bytes())
	}
	return a.Bytes()
}

// toMicros rewrites a nanosecond-magic stream of microsecond-granular
// records into the classic microsecond magic.
func toMicros(stream []byte) []byte {
	out := append([]byte(nil), stream...)
	binary.LittleEndian.PutUint32(out, MagicMicros)
	for off := 24; off < len(out); {
		sub := binary.LittleEndian.Uint32(out[off+4:])
		binary.LittleEndian.PutUint32(out[off+4:], sub/1000)
		off += 16 + int(binary.LittleEndian.Uint32(out[off+8:]))
	}
	return out
}

// sameRecords requires got to hold exactly want's records.
func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: parsed %d records, wrote %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].At != want[i].At || !bytes.Equal(got[i].Frame, want[i].Frame) {
			t.Fatalf("%s: record %d parsed as (%v, %x), written as (%v, %x)",
				what, i, got[i].At, got[i].Frame, want[i].At, want[i].Frame)
		}
	}
}

// FuzzPcapParse: Parse never panics, whatever it reads, and never returns
// a record longer than the snap length. Read as a record script, the same
// input is written with Writer and StreamWriter, which must agree byte for
// byte, and the stream must parse back to exactly the records written —
// with the nanosecond magic the writers use, and rewritten to the classic
// microsecond magic after rounding the timestamps to microseconds.
//
// The committed corpus (testdata/fuzz/FuzzPcapParse, from
// gen_fuzz_corpus.go) seeds captures in both magics and broken streams.
func FuzzPcapParse(f *testing.F) {
	f.Add([]byte("not a pcap"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Parse(bytes.NewReader(data))
		if err == nil {
			for i, r := range recs {
				if len(r.Frame) > SnapLen {
					t.Fatalf("record %d holds %d bytes, past the snap length", i, len(r.Frame))
				}
			}
		}

		want := pcapScript(data)
		got, err := Parse(bytes.NewReader(writeBoth(t, want)))
		if err != nil {
			t.Fatalf("nanosecond stream does not parse: %v", err)
		}
		sameRecords(t, "nanosecond magic", got, want)

		for i := range want {
			want[i].At -= want[i].At % sim.Microsecond
		}
		got, err = Parse(bytes.NewReader(toMicros(writeBoth(t, want))))
		if err != nil {
			t.Fatalf("microsecond stream does not parse: %v", err)
		}
		sameRecords(t, "microsecond magic", got, want)
	})
}
