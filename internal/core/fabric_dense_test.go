package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"powerpunch/internal/mesh"
	"powerpunch/internal/obs"
	"powerpunch/internal/topo"
)

// denseFabric is the reference punch fabric: the same semantics as
// Fabric, but Step walks every node three times per cycle, the way the
// fabric did before it tracked live nodes. It exists only to check the
// sparse Step against.
type denseFabric struct {
	rf         *topo.RoutingFunction
	hops       int
	strict     bool
	inbox      [][]mesh.NodeID
	localHold  []bool
	pending    [][]mesh.NodeID
	outbox     [][mesh.NumLinkDirs][]mesh.NodeID
	hold       []bool
	strictUsed [][mesh.NumLinkDirs]bool
	heldList   []mesh.NodeID
	events     []obs.Event
	stats      FabricStats
}

func newDenseFabric(rf *topo.RoutingFunction, hops int, strict bool) *denseFabric {
	n := rf.Topology().NumNodes()
	return &denseFabric{
		rf: rf, hops: hops, strict: strict,
		inbox:      make([][]mesh.NodeID, n),
		localHold:  make([]bool, n),
		pending:    make([][]mesh.NodeID, n),
		outbox:     make([][mesh.NumLinkDirs][]mesh.NodeID, n),
		hold:       make([]bool, n),
		strictUsed: make([][mesh.NumLinkDirs]bool, n),
	}
}

func (f *denseFabric) emit(e obs.Event) { f.events = append(f.events, e) }

func (f *denseFabric) EmitSource(cur, dst mesh.NodeID) {
	t := TargetedRouter(f.rf, cur, dst, f.hops)
	if t == mesh.Invalid {
		return
	}
	if f.strict {
		if d := topo.MustRoute(f.rf, cur, t); d != mesh.Local {
			di := slices.Index(mesh.LinkDirections[:], d)
			if f.strictUsed[cur][di] {
				f.stats.StrictDrops++
				return
			}
			f.strictUsed[cur][di] = true
		}
	}
	f.stats.SourceEmissions++
	f.pending[cur] = appendUnique(f.pending[cur], t)
	f.emit(obs.Event{Kind: obs.KindPunchEmit, Node: int32(cur), Dst: int32(t), A: int64(dst)})
}

func (f *denseFabric) EmitLocal(src, dst mesh.NodeID) {
	f.localHold[src] = true
	f.emit(obs.Event{Kind: obs.KindPunchLocal, Node: int32(src)})
	if src != dst {
		f.EmitSource(src, dst)
	}
}

func (f *denseFabric) HoldLocal(n mesh.NodeID) {
	f.localHold[n] = true
	f.emit(obs.Event{Kind: obs.KindPunchLocal, Node: int32(n)})
}

func (f *denseFabric) Step() {
	t := f.rf.Topology()
	n := t.NumNodes()
	f.heldList = f.heldList[:0]
	for node := 0; node < n; node++ {
		id := mesh.NodeID(node)
		hold := f.localHold[node] || len(f.pending[node]) > 0 || len(f.inbox[node]) > 0
		if hold {
			f.heldList = append(f.heldList, id)
		}
		relay := func(targets []mesh.NodeID, isRelay bool) {
			for _, tg := range targets {
				if tg == id {
					if isRelay {
						f.emit(obs.Event{Kind: obs.KindPunchArrive, Node: int32(id)})
					}
					continue
				}
				d := topo.MustRoute(f.rf, id, tg)
				di := slices.Index(mesh.LinkDirections[:], d)
				before := len(f.outbox[node][di])
				f.outbox[node][di] = appendUnique(f.outbox[node][di], tg)
				if isRelay && len(f.outbox[node][di]) > before {
					f.stats.RelayedTargets++
				}
				if before > 0 && len(f.outbox[node][di]) > before {
					f.emit(obs.Event{Kind: obs.KindPunchMerge, Node: int32(id), Dir: int8(d), Dst: int32(tg)})
				}
			}
		}
		relay(f.inbox[node], true)
		relay(f.pending[node], false)
		f.hold[node] = hold
		if hold {
			f.emit(obs.Event{Kind: obs.KindPunchHold, Node: int32(id)})
		}
	}
	for node := 0; node < n; node++ {
		f.inbox[node] = f.inbox[node][:0]
	}
	for node := 0; node < n; node++ {
		for di, d := range mesh.LinkDirections {
			out := f.outbox[node][di]
			if len(out) == 0 {
				continue
			}
			f.stats.ChannelCycles++
			if nb := t.Neighbor(mesh.NodeID(node), d); nb != mesh.Invalid {
				for _, tg := range out {
					f.inbox[nb] = appendUnique(f.inbox[nb], tg)
				}
			}
			f.outbox[node][di] = out[:0]
		}
		f.pending[node] = f.pending[node][:0]
		f.localHold[node] = false
		f.strictUsed[node] = [mesh.NumLinkDirs]bool{}
	}
}

// TestSparseStepMatchesDense drives random EmitSource / EmitLocal /
// HoldLocal traffic, in bursts and lulls, through the fabric and the
// dense reference on mesh, torus and ring, strict and not, and after
// every cycle compares them (see compareFabrics).
func TestSparseStepMatchesDense(t *testing.T) {
	fabrics := []struct {
		kind topo.Kind
		w, h int
	}{{topo.KindMesh, 8, 8}, {topo.KindTorus, 6, 5}, {topo.KindRing, 12, 1}}
	for _, fab := range fabrics {
		for _, strict := range []bool{false, true} {
			for _, hops := range []int{1, 3} {
				fab, strict, hops := fab, strict, hops
				t.Run(fmt.Sprintf("%v/strict=%v/hops=%d", fab.kind, strict, hops), func(t *testing.T) {
					tp, err := topo.New(fab.kind, fab.w, fab.h)
					if err != nil {
						t.Fatal(err)
					}
					rf := topo.Routing(tp)
					f := NewFabric(rf, hops, strict, nil)
					bus := obs.NewBus(obs.Meta{})
					var rec obs.Recorder
					bus.Attach(&rec)
					f.SetBus(bus)
					ref := newDenseFabric(rf, hops, strict)
					rng := rand.New(rand.NewSource(int64(fab.kind)*10 + int64(hops)))
					nodes := tp.NumNodes()
					node := func() mesh.NodeID { return mesh.NodeID(rng.Intn(nodes)) }
					for cyc := 0; cyc < 640; cyc++ {
						// Bursts of up to 3 ops per node alternate with
						// quiet stretches the fabric must drain through;
						// the run ends with one.
						ops := 0
						if cyc < 600 && cyc/40%2 == 0 {
							ops = rng.Intn(3 * nodes)
						}
						for i := 0; i < ops; i++ {
							a, b := node(), node()
							switch rng.Intn(4) {
							case 0, 1:
								f.EmitSource(a, b)
								ref.EmitSource(a, b)
							case 2:
								f.EmitLocal(a, b)
								ref.EmitLocal(a, b)
							default:
								f.HoldLocal(a)
								ref.HoldLocal(a)
							}
						}
						f.Step()
						ref.Step()
						if err := compareFabrics(f, ref, rec.Slice(0, rec.Mark())); err != nil {
							t.Fatalf("cycle %d: %v", cyc, err)
						}
						rec.Reset()
						ref.events = ref.events[:0]
					}
					if hops > 1 && f.Stats().RelayedTargets == 0 {
						t.Errorf("no relays: %+v", f.Stats())
					}
					if f.NeedsStep() {
						t.Error("fabric still needs stepping after the quiet tail")
					}
				})
			}
		}
	}
}

// compareFabrics checks one cycle of the fabric against the dense
// reference: Stats, Held and every Hold exactly; each node's inbox as a
// set, since the fabric lists a reach-set register in bit order and the
// reference in arrival order; and the event streams exactly, except
// punch_merge. A channel carrying m targets is m-1 merges in both, but
// the reference names the targets in arrival order and the fabric all
// but the lowest register bit, so merges are compared as a count per
// (cycle, node, direction).
func compareFabrics(f *Fabric, ref *denseFabric, events []obs.Event) error {
	if f.Stats() != ref.stats {
		return fmt.Errorf("stats %+v, dense %+v", f.Stats(), ref.stats)
	}
	if !slices.Equal(f.Held(), ref.heldList) {
		return fmt.Errorf("held %v, dense %v", f.Held(), ref.heldList)
	}
	for n := range ref.hold {
		id := mesh.NodeID(n)
		if f.Hold(id) != ref.hold[n] {
			return fmt.Errorf("node %d: hold %v, dense %v", n, f.Hold(id), ref.hold[n])
		}
		got, want := slices.Clone(f.InboxTargets(id)), slices.Clone(ref.inbox[n])
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			return fmt.Errorf("node %d: inbox %v, dense %v", n, got, want)
		}
	}
	gotEv, gotMerges := splitMerges(events)
	wantEv, wantMerges := splitMerges(ref.events)
	if !slices.Equal(gotEv, wantEv) {
		return fmt.Errorf("events differ:\n%v\ndense:\n%v", gotEv, wantEv)
	}
	if !maps.Equal(gotMerges, wantMerges) {
		return fmt.Errorf("merges per (node, direction) %v, dense %v", gotMerges, wantMerges)
	}
	return nil
}

// mergeKey names one channel's merges within a cycle.
type mergeKey struct {
	node int32
	dir  int8
}

// splitMerges returns events without their punch_merge events, and the
// merge count per (node, direction).
func splitMerges(events []obs.Event) ([]obs.Event, map[mergeKey]int) {
	var rest []obs.Event
	merges := map[mergeKey]int{}
	for _, e := range events {
		if e.Kind == obs.KindPunchMerge {
			merges[mergeKey{e.Node, e.Dir}]++
			continue
		}
		rest = append(rest, e)
	}
	return rest, merges
}

func appendUnique(s []mesh.NodeID, t mesh.NodeID) []mesh.NodeID {
	for _, v := range s {
		if v == t {
			return s
		}
	}
	return append(s, t)
}
