package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOfChargesInnermostSimulatorFrame(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2", "prism/internal/obs.(*Registry).Counter",
			"prism/internal/softirq.(*Engine).poll", "prism/internal/sim.(*Engine).Run"}, "obs"},
		{[]string{"runtime.mallocgc", "prism/internal/pkt.(*SKBPool).Get", "prism/internal/nic.(*NIC).dma"}, "pkt"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, gcLayer},
		{[]string{"main.main", "runtime.main"}, gcLayer},
		{[]string{"prism/internal/experiments.BaseSpec", "prism/internal/sim.(*Engine).Run"}, otherLayer},
		{[]string{"prism/internal/par.(*Group).Run.func1"}, "par"},
		{nil, gcLayer},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pb) uint(num int, v uint64) { p.varint(uint64(num)<<3 | 0); p.varint(v) }

func (p *pb) bytes(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.varint(v)
	}
	p.bytes(num, q.b)
}

// syntheticProfile builds a gzipped profile with two samples: a map
// lookup inlined into obs and called from softirq (3 samples), and a GC
// worker with no simulator frame (5 samples, location ids unpacked).
func syntheticProfile(t *testing.T) []byte {
	var prof pb
	strs := []string{"", "runtime.mapaccess2", "prism/internal/obs.(*Registry).Counter",
		"prism/internal/softirq.(*Engine).poll", "runtime.gcBgMarkWorker"}
	for id := uint64(1); id <= 4; id++ {
		var fn pb
		fn.uint(1, id)
		fn.uint(2, id) // name: strs[id]
		prof.bytes(5, fn.b)
	}
	loc := func(id uint64, fns ...uint64) {
		var l pb
		l.uint(1, id)
		for _, f := range fns {
			var line pb
			line.uint(1, f)
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
	}
	loc(1, 1, 2) // mapaccess2 inlined into Registry.Counter
	loc(2, 3)
	loc(3, 4)
	var s1 pb
	s1.packed(1, 1, 2)
	s1.packed(2, 3, 30_000_000)
	prof.bytes(2, s1.b)
	var s2 pb
	s2.uint(1, 3)
	s2.uint(2, 5)
	s2.uint(2, 50_000_000)
	prof.bytes(2, s2.b)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLayerSamplesSyntheticProfile(t *testing.T) {
	acc := map[string]int64{}
	if err := layerSamples(syntheticProfile(t), acc); err != nil {
		t.Fatal(err)
	}
	if acc["obs"] != 3 || acc[gcLayer] != 5 || len(acc) != 2 {
		t.Errorf("layer samples = %v, want obs:3 %s:5", acc, gcLayer)
	}
}

func TestLayerSamplesRejectsGarbage(t *testing.T) {
	if err := layerSamples([]byte("not a profile"), map[string]int64{}); err == nil {
		t.Error("layerSamples accepted a non-gzip input")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x05, 0x01}) // sample field claiming 5 bytes, holding 1
	zw.Close()
	if err := layerSamples(buf.Bytes(), map[string]int64{}); err == nil {
		t.Error("layerSamples accepted a truncated profile")
	}
}

var spinSink uint64

// TestLayerSamplesRealProfile decodes a profile written by runtime/pprof,
// so the decoder is checked against the real format and not only the
// synthetic one.
func TestLayerSamplesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			spinSink = spinSink*6364136223846793005 + 1442695040888963407
		}
	}
	pprof.StopCPUProfile()
	acc := map[string]int64{}
	if err := layerSamples(buf.Bytes(), acc); err != nil {
		t.Fatal(err)
	}
	if acc[gcLayer] == 0 {
		t.Errorf("a spin loop outside the simulator charged nothing to %s: %v", gcLayer, acc)
	}
}
