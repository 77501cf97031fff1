// Package interconnect models the on-chip point-to-point data/coherence
// network of the target multicore, with an average 10-cycle latency.
// (Reunion's dedicated fingerprint network is private to a pair and
// never contended, so the pair adds its fixed latency itself.)
package interconnect

import "repro/internal/sim"

// Network is the point-to-point coherence/data interconnect. Latency is
// the paper's average hop latency; congestion is modeled by per-endpoint
// occupancy: each message holds its source and destination ports for a
// configurable number of cycles, so bursts queue up rather than
// teleport.
type Network struct {
	hopLat   sim.Cycle
	portBusy sim.Cycle
	ports    []sim.Cycle // next free cycle per endpoint

	Messages uint64
	Queued   uint64
}

// NewNetwork creates a network with endpoints numbered [0, endpoints).
// Endpoint numbering is up to the caller (cores, L3 banks, memory
// controllers).
func NewNetwork(endpoints int, hopLat, portBusy sim.Cycle) *Network {
	return &Network{
		hopLat:   hopLat,
		portBusy: portBusy,
		ports:    make([]sim.Cycle, endpoints),
	}
}

// Send models one message from src to dst injected at cycle now and
// returns its arrival cycle. Port contention at both endpoints delays
// injection.
func (n *Network) Send(src, dst int, now sim.Cycle) sim.Cycle {
	n.Messages++
	start := now
	if n.ports[src] > start {
		start = n.ports[src]
		n.Queued++
	}
	if n.ports[dst] > start {
		start = n.ports[dst]
	}
	n.ports[src] = start + n.portBusy
	n.ports[dst] = start + n.portBusy
	return start + n.hopLat
}
