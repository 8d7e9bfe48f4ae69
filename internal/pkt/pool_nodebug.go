//go:build !pooldebug

package pkt

// PoolDebug reports whether use-after-put poisoning is compiled in.
const PoolDebug = false

func poisonFrame(*Frame) {}

func poisonSKB(*SKB) {}

func poisonWire([][]byte, []byte) {}
