package socket

import (
	"prism/internal/netdev"
	"prism/internal/pkt"
	"prism/internal/sim"
)

// DeliverToTable finishes protocol processing for a frame addressed to a
// local socket table and produces the stage result. It is the tail of both
// the host path (from the NIC stage) and the container path (from the veth
// stage): transport demux on the SKB's cached headers happens here, at
// handler time — so drops are attributed to the stage — and the socket
// itself is the result's Sink, consuming the SKB at its completion time
// without a per-packet closure.
func DeliverToTable(tbl *Table, cost sim.Time, skb *pkt.SKB) netdev.Result {
	if tbl == nil || skb.ParseHeaders() != nil {
		return netdev.Result{Verdict: netdev.VerdictDrop, Cost: cost}
	}
	sock := tbl.Lookup(skb.Flow.Proto, skb.Flow.DstPort)
	if sock == nil {
		// No listener: ICMP port-unreachable territory; count as a drop.
		return netdev.Result{Verdict: netdev.VerdictDrop, Cost: cost}
	}
	return netdev.Result{Verdict: netdev.VerdictDeliver, Cost: cost, Sink: sock}
}
