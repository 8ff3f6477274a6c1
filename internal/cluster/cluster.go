// Package cluster models the physical cluster underneath the simulated
// services: a fixed pool of nodes with CPU capacity, replica placement, and
// allocation accounting. The paper's testbed is 8 machines with 40–88 CPUs
// each (§VII-A); binding an application to a Cluster makes replica scaling
// subject to real capacity, so autoscalers can hit the wall the way they do
// in production. Nodes also carry a failure lifecycle (SetDown) and an
// effective-capacity factor (SetCPUFactor) so fault injection can drain
// capacity and degrade co-located replicas.
//
// Placement runs on a maintained free-capacity index (index.go): Place,
// Release and SetDown are O(log n) in the node count, and the capacity
// aggregates (TotalCapacity, AvailableCapacity, TotalUsed, the ErrNoCapacity
// diagnostic) are kept incrementally instead of re-scanning all nodes — the
// fleet-scale path for 1000-node clusters. The index must pick the node a
// linear best/worst-fit scan would, lowest-index tie-break included;
// TestIndexedPlaceMatchesReference checks it against that scan.
package cluster

import (
	"fmt"
	"math/rand"
)

// Node is one machine.
type Node struct {
	Name     string
	Capacity float64 // CPUs
	used     float64
	down     bool
	// cpuFactor scales the node's effective CPU speed (interference model);
	// 0 means unset and reads as 1.
	cpuFactor float64

	c *Cluster // owning cluster (index + aggregate maintenance)
	g *group   // owning node group (nil on ungrouped clusters)
	i int32    // index in c.nodes, the placement tie-break key
}

// Used reports allocated CPUs.
func (n *Node) Used() float64 { return n.used }

// Free reports unallocated CPUs.
func (n *Node) Free() float64 { return n.Capacity - n.used }

// Down reports whether the node is failed.
func (n *Node) Down() bool { return n.down }

// SetDown fails (true) or recovers (false) the node. Place skips down nodes;
// existing allocations are untouched — evicting resident replicas is the
// caller's job (services.App.EvictNode). O(log n): the node leaves or
// rejoins the free-capacity index and the up-capacity aggregates.
func (n *Node) SetDown(down bool) {
	if n.down == down {
		return
	}
	n.down = down
	c := n.c
	if down {
		c.idx.erase(n.i)
		c.availCap -= n.Capacity
		c.usedUp -= n.used
		c.downCount++
	} else {
		c.idx.insert(n.i, n.Free())
		c.availCap += n.Capacity
		c.usedUp += n.used
		c.downCount--
	}
	if g := n.g; g != nil {
		if down {
			g.idx.erase(n.i)
			g.availCap -= n.Capacity
			g.usedUp -= n.used
			g.downCount++
		} else {
			g.idx.insert(n.i, n.Free())
			g.availCap += n.Capacity
			g.usedUp += n.used
			g.downCount--
		}
	}
}

// CPUFactor reports the node's effective-capacity multiplier (1 = nominal).
func (n *Node) CPUFactor() float64 {
	if n.cpuFactor == 0 {
		return 1
	}
	return n.cpuFactor
}

// SetCPUFactor models CPU interference: resident replicas run at factor ×
// their nominal rate. Allocation bookkeeping is unchanged — the node still
// "holds" the same CPUs, they are just slower — so the free-capacity index
// is untouched and this stays O(1).
func (n *Node) SetCPUFactor(f float64) {
	if f <= 0 {
		panic("cluster: non-positive cpu factor")
	}
	n.cpuFactor = f
}

// Placement records where a replica landed; keep it to release later.
type Placement struct {
	Node *Node
	CPUs float64
}

// Strategy selects the node for a new replica among those that fit.
type Strategy int

// Placement strategies.
const (
	// BestFit packs replicas tightly (least free capacity that fits) —
	// fewer fragmentation stalls, more co-location.
	BestFit Strategy = iota
	// WorstFit spreads replicas (most free capacity) — Kubernetes'
	// least-allocated default scoring.
	WorstFit
)

// Cluster is a pool of nodes.
type Cluster struct {
	nodes    []*Node
	byName   map[string]*Node
	strategy Strategy

	// Incrementally maintained aggregates. Capacities are fixed after New,
	// so totalCap never changes; the others move in O(1) on
	// Place/Release/SetDown.
	totalCap  float64
	availCap  float64 // capacity summed over up nodes
	usedUp    float64 // used CPUs summed over up nodes
	totalUsed float64
	downCount int

	idx freeIndex

	// Node groups (NewGrouped): declaration-ordered members with group-scoped
	// indexes for region-restricted placement. Empty on ungrouped clusters.
	groups      []*group
	groupByName map[string]*group
}

// New builds a cluster from node capacities.
func New(strategy Strategy, capacities ...float64) *Cluster {
	c := &Cluster{strategy: strategy, byName: make(map[string]*Node, len(capacities))}
	for i, cap := range capacities {
		if cap <= 0 {
			panic("cluster: non-positive node capacity")
		}
		n := &Node{Name: fmt.Sprintf("node-%d", i), Capacity: cap, c: c, i: int32(i)}
		c.nodes = append(c.nodes, n)
		c.byName[n.Name] = n
		c.totalCap += cap
		c.availCap += cap
	}
	if len(c.nodes) == 0 {
		panic("cluster: no nodes")
	}
	c.idx.init(len(c.nodes), strategy == WorstFit)
	for _, n := range c.nodes {
		c.idx.insert(n.i, n.Capacity)
	}
	return c
}

// PaperTestbed builds the §VII-A cluster: 8 machines, 40–88 CPUs.
func PaperTestbed() *Cluster {
	return New(WorstFit, 40, 48, 56, 64, 64, 72, 80, 88)
}

// Synthetic builds an n-node fleet whose capacities are drawn
// deterministically from the paper testbed's range (40–88 CPUs in steps of
// 8) — the cluster-size knob for fleet-scale experiments. Equal (n, seed)
// produce identical clusters on any platform.
func Synthetic(strategy Strategy, n int, seed int64) *Cluster {
	rng := rand.New(rand.NewSource(seed))
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = float64(40 + 8*rng.Intn(7))
	}
	return New(strategy, caps...)
}

// Nodes lists the nodes (callers must not mutate).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// NodeByName finds a node by name, or nil.
func (c *Cluster) NodeByName(name string) *Node {
	return c.byName[name]
}

// TotalCapacity sums node capacities, down or not.
func (c *Cluster) TotalCapacity() float64 { return c.totalCap }

// AvailableCapacity sums the capacities of up nodes only.
func (c *Cluster) AvailableCapacity() float64 { return c.availCap }

// TotalUsed sums allocated CPUs.
func (c *Cluster) TotalUsed() float64 { return c.totalUsed }

// ErrNoCapacity is returned when no node can host the replica. It carries
// enough of the capacity picture to diagnose placement failures in long
// runs: the largest free fragment (is this fragmentation or exhaustion?)
// and the total free capacity across up nodes.
type ErrNoCapacity struct {
	CPUs        float64 // requested
	Group       string  // node group the request was restricted to ("" = whole cluster)
	LargestFree float64 // biggest free fragment on any up node
	TotalFree   float64 // free CPUs summed over up nodes
	DownNodes   int     // nodes currently failed
}

// Error implements error.
func (e ErrNoCapacity) Error() string {
	where := "node"
	if e.Group != "" {
		where = fmt.Sprintf("node in group %q", e.Group)
	}
	msg := fmt.Sprintf("cluster: no %s with %.1f free CPUs (largest free fragment %.1f, %.1f total free)",
		where, e.CPUs, e.LargestFree, e.TotalFree)
	if e.DownNodes > 0 {
		msg += fmt.Sprintf("; %d node(s) down", e.DownNodes)
	}
	return msg
}

// fitEps absorbs float accumulation error in the fit check: a node fits when
// its free capacity is within 1e-9 of the request.
const fitEps = 1e-9

// Place allocates cpus on an up node per the strategy. Ties on equal free
// capacity break to the lowest node index, deterministically. O(log n) via
// the free-capacity index; the ErrNoCapacity diagnostic reads the
// incrementally maintained aggregates instead of re-scanning nodes.
func (c *Cluster) Place(cpus float64) (Placement, error) {
	if cpus <= 0 {
		panic("cluster: non-positive placement")
	}
	var pick int32 = -1
	switch c.strategy {
	case BestFit:
		// Tightest fit: the smallest (free, index) key with free ≥ request.
		pick = c.idx.ceil(cpus - fitEps)
	case WorstFit:
		// Emptiest node in one descent: the WorstFit index orders equal-free
		// ties by descending index, so max() is already the lowest-index
		// holder of the largest free fragment.
		if m := c.idx.max(); m != -1 && c.idx.freeOf(m) >= cpus-fitEps {
			pick = m
		}
	}
	if pick == -1 {
		return Placement{}, ErrNoCapacity{
			CPUs:        cpus,
			LargestFree: c.largestFree(),
			TotalFree:   c.availCap - c.usedUp,
			DownNodes:   c.downCount,
		}
	}
	return c.commitPlace(c.nodes[pick], cpus), nil
}

// commitPlace books an allocation on the chosen node, keeping the
// cluster-wide and (when the node belongs to one) group-level indexes and
// aggregates in step.
func (c *Cluster) commitPlace(best *Node, cpus float64) Placement {
	best.used += cpus
	c.totalUsed += cpus
	c.usedUp += cpus
	c.idx.update(best.i, best.Free())
	if g := best.g; g != nil {
		g.idx.update(best.i, best.Free())
		g.usedUp += cpus
	}
	return Placement{Node: best, CPUs: cpus}
}

// largestFree reports the biggest free fragment on any up node (0 when every
// node is down).
func (c *Cluster) largestFree() float64 {
	if m := c.idx.max(); m != -1 {
		return c.idx.freeOf(m)
	}
	return 0
}

// Release returns a placement's CPUs to its node.
func (c *Cluster) Release(p Placement) {
	if p.Node == nil {
		return
	}
	n := p.Node
	old := n.used
	n.used -= p.CPUs
	if n.used < -fitEps {
		panic("cluster: released more than allocated")
	}
	if n.used < 0 {
		n.used = 0
	}
	delta := old - n.used
	c.totalUsed -= delta
	if !n.down {
		// Down nodes are out of the index; their used CPUs rejoin the up
		// aggregates when SetDown(false) re-links them.
		c.usedUp -= delta
		c.idx.update(n.i, n.Free())
		if g := n.g; g != nil {
			g.usedUp -= delta
			g.idx.update(n.i, n.Free())
		}
	}
}

// FitsReplicas reports how many replicas of the given size the cluster
// could still place on up nodes (a capacity planner's view; does not
// allocate).
func (c *Cluster) FitsReplicas(cpus float64) int {
	n := 0
	for _, node := range c.nodes {
		if node.down {
			continue
		}
		free := node.Free()
		for free >= cpus-fitEps {
			free -= cpus
			n++
		}
	}
	return n
}
