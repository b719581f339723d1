// Package traffic generates synthetic workloads for the load-sweep and
// sensitivity experiments (paper Figures 12 and 13): uniform random,
// transpose, and bit-complement patterns (plus tornado, neighbor, and
// hotspot extensions), injected as a Bernoulli process at a configured
// rate in flits per node per cycle.
package traffic

import (
	"fmt"
	"math/rand"

	"powerpunch/internal/flit"
	"powerpunch/internal/mesh"
	"powerpunch/internal/network"
	"powerpunch/internal/topo"
)

// Pattern maps a source node to a destination node.
type Pattern interface {
	// Dst returns the destination for a packet injected at src. It may
	// consult rng (uniform/hotspot) or be deterministic (permutations).
	Dst(t *topo.Topology, src mesh.NodeID, rng *rand.Rand) mesh.NodeID
	// Name returns the pattern's conventional name.
	Name() string
}

// UniformRandom sends each packet to a destination chosen uniformly from
// all other nodes.
type UniformRandom struct{}

// Name implements Pattern.
func (UniformRandom) Name() string { return "uniform" }

// Dst implements Pattern.
func (UniformRandom) Dst(t *topo.Topology, src mesh.NodeID, rng *rand.Rand) mesh.NodeID {
	n := t.NumNodes()
	d := mesh.NodeID(rng.Intn(n - 1))
	if d >= src {
		d++
	}
	return d
}

// Transpose sends node (x, y) to node (y, x).
type Transpose struct{}

// Name implements Pattern.
func (Transpose) Name() string { return "transpose" }

// Dst implements Pattern.
func (Transpose) Dst(t *topo.Topology, src mesh.NodeID, _ *rand.Rand) mesh.NodeID {
	c := t.CoordOf(src)
	// For non-square meshes, mirror within bounds.
	d := mesh.Coord{X: c.Y % t.Width(), Y: c.X % t.Height()}
	return t.NodeAt(d)
}

// BitComplement sends node (x, y) to (W-1-x, H-1-y).
type BitComplement struct{}

// Name implements Pattern.
func (BitComplement) Name() string { return "bit-complement" }

// Dst implements Pattern.
func (BitComplement) Dst(t *topo.Topology, src mesh.NodeID, _ *rand.Rand) mesh.NodeID {
	c := t.CoordOf(src)
	return t.NodeAt(mesh.Coord{X: t.Width() - 1 - c.X, Y: t.Height() - 1 - c.Y})
}

// Tornado sends node (x, y) to ((x + W/2 - 1) mod W, y), stressing one
// dimension.
type Tornado struct{}

// Name implements Pattern.
func (Tornado) Name() string { return "tornado" }

// Dst implements Pattern.
func (Tornado) Dst(t *topo.Topology, src mesh.NodeID, _ *rand.Rand) mesh.NodeID {
	c := t.CoordOf(src)
	shift := t.Width()/2 - 1
	if shift < 1 {
		shift = 1
	}
	return t.NodeAt(mesh.Coord{X: (c.X + shift) % t.Width(), Y: c.Y})
}

// Neighbor sends each packet one hop east (wrapping), a minimal-distance
// pattern that exercises the injection-slack path heavily.
type Neighbor struct{}

// Name implements Pattern.
func (Neighbor) Name() string { return "neighbor" }

// Dst implements Pattern.
func (Neighbor) Dst(t *topo.Topology, src mesh.NodeID, _ *rand.Rand) mesh.NodeID {
	c := t.CoordOf(src)
	return t.NodeAt(mesh.Coord{X: (c.X + 1) % t.Width(), Y: c.Y})
}

// Hotspot sends a fraction of traffic to a fixed hotspot node and the
// rest uniformly.
type Hotspot struct {
	Node mesh.NodeID
	Frac float64 // probability a packet targets the hotspot
}

// Name implements Pattern.
func (h Hotspot) Name() string { return fmt.Sprintf("hotspot(%d,%.2f)", h.Node, h.Frac) }

// Dst implements Pattern.
func (h Hotspot) Dst(t *topo.Topology, src mesh.NodeID, rng *rand.Rand) mesh.NodeID {
	if src != h.Node && rng.Float64() < h.Frac {
		return h.Node
	}
	return (UniformRandom{}).Dst(t, src, rng)
}

// ByName returns the pattern with the given conventional name.
func ByName(name string) (Pattern, error) {
	switch name {
	case "uniform":
		return UniformRandom{}, nil
	case "transpose":
		return Transpose{}, nil
	case "bit-complement", "bitcomplement":
		return BitComplement{}, nil
	case "tornado":
		return Tornado{}, nil
	case "neighbor":
		return Neighbor{}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}

// Synthetic is a Bernoulli open-loop injector: each node independently
// generates packets so that the offered load equals Rate flits per node
// per cycle, with DataFrac of the packets being multi-flit data packets
// (the remainder single-flit control packets), mirroring the mixed
// coherence traffic the paper's full-system runs carry.
type Synthetic struct {
	Pattern  Pattern
	Rate     float64 // offered load, flits/node/cycle
	DataFrac float64 // fraction of packets that are data packets
	// HintValidFrac is the probability a message's generating access
	// carries the slack-2 valid bit (defaults from config when NaN).
	HintValidFrac float64

	rng *rand.Rand
}

// NewSynthetic returns a synthetic driver with the given pattern and
// offered load, seeded deterministically.
func NewSynthetic(p Pattern, rate float64, seed int64) *Synthetic {
	return &Synthetic{
		Pattern:       p,
		Rate:          rate,
		DataFrac:      0.5,
		HintValidFrac: -1,
		rng:           rand.New(rand.NewSource(seed)),
	}
}

// pktProb returns the per-node per-cycle packet-generation probability
// that yields the offered flit load.
func (s *Synthetic) pktProb(n *network.Network) float64 {
	avgSize := s.DataFrac*float64(n.Cfg.DataPacketSize) + (1-s.DataFrac)*float64(n.Cfg.CtrlPacketSize)
	if avgSize <= 0 {
		return 0
	}
	p := s.Rate / avgSize
	if p > 1 {
		p = 1
	}
	return p
}

// Tick implements network.Driver: every node flips its injection coin.
func (s *Synthetic) Tick(n *network.Network, now int64) {
	p := s.pktProb(n)
	if p <= 0 {
		return
	}
	hintFrac := s.HintValidFrac
	if hintFrac < 0 {
		hintFrac = n.Cfg.ResourceSlackValidFrac
	}
	for id := mesh.NodeID(0); n.M.Contains(id); id++ {
		if s.rng.Float64() >= p {
			continue
		}
		dst := s.Pattern.Dst(n.M, id, s.rng)
		if dst == id || dst == mesh.Invalid {
			continue
		}
		kind := flit.KindControl
		vn := flit.VNRequest
		if s.rng.Float64() < s.DataFrac {
			kind = flit.KindData
			vn = flit.VNResponse
		}
		pkt := n.NewPacket(id, dst, vn, kind)
		hint := s.rng.Float64() < hintFrac
		n.NI(id).Submit(pkt, hint, now)
	}
}

// Done implements network.Driver; synthetic traffic never finishes.
func (s *Synthetic) Done() bool { return false }
