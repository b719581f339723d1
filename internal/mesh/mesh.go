// Package mesh holds the vocabulary every fabric shares: node IDs,
// coordinates, the five router ports and their directions, and links.
// The fabrics themselves (mesh, torus and ring, all one grid type) and
// their routing live in package topo.
//
// Nodes are numbered row-major, matching the paper's Figure 4: node 0 is
// the top-left corner, X+ grows to the right (east), and Y+ grows downward
// (south). Router 27 of the paper's 8x8 example is therefore at column 3,
// row 3.
package mesh

import "fmt"

// NodeID identifies a router (and its co-located network interface) in a
// fabric. IDs are dense, row-major, in [0, Width*Height).
type NodeID int

// Invalid is returned by lookups that have no answer (e.g. the neighbor
// beyond an edge of a mesh).
const Invalid NodeID = -1

// Direction labels the four link directions plus the local port.
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

// NumPorts is the number of router ports (4 link directions + 1 local
// port).
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

// Coord is a grid coordinate. X is the column, Y the row.
type Coord struct {
	X, Y int
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

// Link is a unidirectional router-to-router channel.
type Link struct {
	Src NodeID
	Dst NodeID
	Dir Direction // direction of travel leaving Src
}
