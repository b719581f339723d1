// Package mesh models 2D mesh network-on-chip topologies: node naming,
// coordinates, directions, ports, and link enumeration.
//
// Nodes are numbered row-major, matching the paper's Figure 4: node 0 is
// the top-left corner, X+ grows to the right (east), and Y+ grows downward
// (south). Router 27 of the paper's 8x8 example is therefore at column 3,
// row 3.
package mesh

import "fmt"

// NodeID identifies a router (and its co-located network interface) in a
// mesh. IDs are dense, row-major, in [0, Width*Height).
type NodeID int

// Invalid is returned by lookups that have no answer (e.g. the neighbor
// beyond an edge of the mesh).
const Invalid NodeID = -1

// Direction labels the four mesh directions plus the local port.
// The zero value is North.
type Direction int

// The five router ports. North is Y-, South is Y+, East is X+, West is X-,
// mirroring the paper's axis convention (Figure 4: X+ right, Y+ down).
const (
	North Direction = iota // Y-
	South                  // Y+
	East                   // X+
	West                   // X-
	Local                  // to/from the network interface
)

// NumPorts is the number of router ports in a 2D mesh router (4 mesh
// directions + 1 local port).
const NumPorts = 5

// NumLinkDirs is the number of inter-router directions (excludes Local).
const NumLinkDirs = 4

// LinkDirections lists the four inter-router directions in a fixed order
// convenient for iteration.
var LinkDirections = [NumLinkDirs]Direction{North, South, East, West}

// String returns the conventional compass name of the direction.
func (d Direction) String() string {
	switch d {
	case North:
		return "N"
	case South:
		return "S"
	case East:
		return "E"
	case West:
		return "W"
	case Local:
		return "L"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Opposite returns the direction a flit arrives from when sent toward d.
// Opposite(Local) is Local.
func (d Direction) Opposite() Direction {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	default:
		return Local
	}
}

// IsX reports whether the direction lies in the X dimension.
func (d Direction) IsX() bool { return d == East || d == West }

// IsY reports whether the direction lies in the Y dimension.
func (d Direction) IsY() bool { return d == North || d == South }

// Coord is a mesh coordinate. X is the column, Y the row.
type Coord struct {
	X, Y int
}

// Mesh is an immutable W x H 2D mesh topology.
type Mesh struct {
	width, height int
	// nodes serves CoordOf and Neighbor from a table built by New, so
	// routing never divides.
	nodes []NodeEntry
}

// NodeEntry is one node's coordinate and link neighbors (by direction).
type NodeEntry struct {
	C   Coord
	Nbr [NumLinkDirs]NodeID
}

// NodeTable returns the entries of the n row-major nodes of a fabric
// with the given width, taking each link neighbor from nbr. Topologies
// build it once at construction and serve CoordOf/Neighbor from it.
func NodeTable(n, width int, nbr func(NodeID, Direction) NodeID) []NodeEntry {
	nodes := make([]NodeEntry, n)
	for id := range nodes {
		nodes[id].C = Coord{X: id % width, Y: id / width}
		for _, d := range LinkDirections {
			nodes[id].Nbr[d] = nbr(NodeID(id), d)
		}
	}
	return nodes
}

// New returns a mesh of the given width and height. It panics if either
// dimension is < 1; topology construction errors are programming errors,
// not runtime conditions.
func New(width, height int) *Mesh {
	if width < 1 || height < 1 {
		panic(fmt.Sprintf("mesh: invalid dimensions %dx%d", width, height))
	}
	m := &Mesh{width: width, height: height}
	m.nodes = NodeTable(m.NumNodes(), width, m.Neighbor)
	return m
}

// Width returns the number of columns.
func (m *Mesh) Width() int { return m.width }

// Height returns the number of rows.
func (m *Mesh) Height() int { return m.height }

// NumNodes returns the total node count.
func (m *Mesh) NumNodes() int { return m.width * m.height }

// Contains reports whether id is a valid node of this mesh.
func (m *Mesh) Contains(id NodeID) bool {
	return id >= 0 && int(id) < m.NumNodes()
}

// CoordOf returns the coordinate of node id.
func (m *Mesh) CoordOf(id NodeID) Coord {
	if uint(id) < uint(len(m.nodes)) {
		return m.nodes[id].C
	}
	return Coord{X: int(id) % m.width, Y: int(id) / m.width}
}

// NodeAt returns the node at coordinate c, or Invalid if c is outside the
// mesh.
func (m *Mesh) NodeAt(c Coord) NodeID {
	if c.X < 0 || c.X >= m.width || c.Y < 0 || c.Y >= m.height {
		return Invalid
	}
	return NodeID(c.Y*m.width + c.X)
}

// Neighbor returns the node adjacent to id in direction d, or Invalid if
// the link would leave the mesh (or d is Local).
func (m *Mesh) Neighbor(id NodeID, d Direction) NodeID {
	if uint(id) < uint(len(m.nodes)) && uint(d) < NumLinkDirs {
		return m.nodes[id].Nbr[d]
	}
	c := m.CoordOf(id)
	switch d {
	case North:
		c.Y--
	case South:
		c.Y++
	case East:
		c.X++
	case West:
		c.X--
	default:
		return Invalid
	}
	return m.NodeAt(c)
}

// Step returns the coordinate delta of one hop in direction d.
func Step(d Direction) (dx, dy int) {
	switch d {
	case North:
		return 0, -1
	case South:
		return 0, 1
	case East:
		return 1, 0
	case West:
		return -1, 0
	default:
		return 0, 0
	}
}

// HopDistance returns the Manhattan distance between two nodes, which is
// the hop count of any minimal (and of the XY) path between them.
func (m *Mesh) HopDistance(a, b NodeID) int {
	ca, cb := m.CoordOf(a), m.CoordOf(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

// Link is a unidirectional router-to-router channel.
type Link struct {
	Src NodeID
	Dst NodeID
	Dir Direction // direction of travel leaving Src
}

// Links enumerates every unidirectional inter-router link in the mesh, in
// a deterministic order (by source node, then direction order N,S,E,W).
func (m *Mesh) Links() []Link {
	var links []Link
	for id := NodeID(0); m.Contains(id); id++ {
		for _, d := range LinkDirections {
			if n := m.Neighbor(id, d); n != Invalid {
				links = append(links, Link{Src: id, Dst: n, Dir: d})
			}
		}
	}
	return links
}

// NodesWithin returns all nodes whose hop distance from id is in [1, k],
// in ascending NodeID order. It is used by the punch encoder to reason
// about which routers a punch channel can serve (paper Section 3's
// "24 routers within 3 hops of router 27" example).
func (m *Mesh) NodesWithin(id NodeID, k int) []NodeID {
	var out []NodeID
	for n := NodeID(0); m.Contains(n); n++ {
		if n == id {
			continue
		}
		if d := m.HopDistance(id, n); d >= 1 && d <= k {
			out = append(out, n)
		}
	}
	return out
}

// Corners returns the four corner nodes (or fewer for degenerate meshes)
// in the order NW, NE, SW, SE. The paper places one memory controller at
// each corner.
func (m *Mesh) Corners() []NodeID {
	set := map[NodeID]bool{}
	var out []NodeID
	for _, c := range []Coord{
		{0, 0},
		{m.width - 1, 0},
		{0, m.height - 1},
		{m.width - 1, m.height - 1},
	} {
		id := m.NodeAt(c)
		if !set[id] {
			set[id] = true
			out = append(out, id)
		}
	}
	return out
}

// String returns a short description such as "8x8 mesh".
func (m *Mesh) String() string {
	return fmt.Sprintf("%dx%d mesh", m.width, m.height)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
