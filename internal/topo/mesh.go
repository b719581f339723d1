package topo

import (
	"powerpunch/internal/mesh"
	"powerpunch/internal/routing"
)

// meshTopo adapts the concrete *mesh.Mesh to the Topology interface.
// It is the paper's fabric: everything the rest of the simulator used
// to get from mesh.Mesh directly now flows through here.
type meshTopo struct {
	m *mesh.Mesh
}

// FromMesh wraps an existing mesh as a Topology.
func FromMesh(m *mesh.Mesh) Topology { return &meshTopo{m: m} }

// Mesh unwraps a Topology back to its underlying *mesh.Mesh, or nil if
// the topology is not a mesh. Legacy call sites that still speak
// *mesh.Mesh (the core encoder's compatibility wrappers) use this.
func Mesh(t Topology) *mesh.Mesh {
	if mt, ok := t.(*meshTopo); ok {
		return mt.m
	}
	return nil
}

func (t *meshTopo) Kind() Kind                        { return KindMesh }
func (t *meshTopo) Width() int                        { return t.m.Width() }
func (t *meshTopo) Height() int                       { return t.m.Height() }
func (t *meshTopo) NumNodes() int                     { return t.m.NumNodes() }
func (t *meshTopo) Contains(id mesh.NodeID) bool      { return t.m.Contains(id) }
func (t *meshTopo) CoordOf(id mesh.NodeID) mesh.Coord { return t.m.CoordOf(id) }
func (t *meshTopo) NodeAt(c mesh.Coord) mesh.NodeID   { return t.m.NodeAt(c) }
func (t *meshTopo) Neighbor(id mesh.NodeID, d mesh.Direction) mesh.NodeID {
	return t.m.Neighbor(id, d)
}
func (t *meshTopo) HopDistance(a, b mesh.NodeID) int { return t.m.HopDistance(a, b) }
func (t *meshTopo) Diameter() int                    { return (t.m.Width() - 1) + (t.m.Height() - 1) }
func (t *meshTopo) Links() []mesh.Link               { return t.m.Links() }
func (t *meshTopo) NodesWithin(id mesh.NodeID, k int) []mesh.NodeID {
	return t.m.NodesWithin(id, k)
}
func (t *meshTopo) Corners() []mesh.NodeID { return t.m.Corners() }
func (t *meshTopo) String() string         { return t.m.String() }

// xyRouting adapts package routing's XY dimension-order routing to the
// RoutingFunction interface. A mesh has no cyclic channel dependencies,
// so a single VC class suffices.
type xyRouting struct {
	t *meshTopo
}

func (r *xyRouting) Topology() Topology { return r.t }

func (r *xyRouting) Route(cur, dst mesh.NodeID) (mesh.Direction, error) {
	if !r.t.Contains(cur) || !r.t.Contains(dst) {
		return mesh.Local, routeError(r.t, cur, dst, "node outside the fabric")
	}
	return routing.XY(r.t.m, cur, dst), nil
}

func (r *xyRouting) NextHop(cur, dst mesh.NodeID) (mesh.NodeID, error) {
	d, err := r.Route(cur, dst)
	if err != nil {
		return mesh.Invalid, err
	}
	if d == mesh.Local {
		return cur, nil
	}
	n := r.t.Neighbor(cur, d)
	if n == mesh.Invalid {
		// XY on a mesh can never route off an edge; reaching this means
		// the destination (or the mesh) is corrupted.
		return mesh.Invalid, routeError(r.t, cur, dst, "XY step leaves the mesh")
	}
	return n, nil
}

func (r *xyRouting) LegalTurn(in, out mesh.Direction) bool               { return routing.LegalTurn(in, out) }
func (r *xyRouting) VCClasses() int                                      { return 1 }
func (r *xyRouting) ClassFor(cur, dst mesh.NodeID, d mesh.Direction) int { return 0 }
func (r *xyRouting) String() string                                      { return "XY" }
