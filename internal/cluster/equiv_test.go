package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestIndexedPlaceMatchesReference is the equivalence property pin for the
// free-capacity index: randomized place/release/down/recover/CPU-factor
// sequences must make the indexed cluster pick the node a linear
// best/worst-fit scan of its own node state would pick — lowest-index
// tie-break included — for both strategies, across ≥40 seeds. Aggregates and
// ErrNoCapacity diagnostics are re-scanned and compared on every step too.
// Every drawn size and capacity is a multiple of 0.5, so all float sums are
// exact and equality checks are legitimate.
func TestIndexedPlaceMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 48; seed++ {
		for _, s := range []Strategy{BestFit, WorstFit} {
			seed, s := seed, s
			t.Run(fmt.Sprintf("seed=%d/strategy=%d", seed, s), func(t *testing.T) {
				runEquivSequence(t, seed, s)
			})
		}
	}
}

// scanPlace is the linear best/worst-fit scan the index replaced: the node
// Place must pick for cpus on c's current state, or the ErrNoCapacity it
// must return, both computed with one O(n) pass over the nodes.
func scanPlace(c *Cluster, cpus float64) (*Node, error) {
	var best *Node
	for _, n := range c.nodes {
		if n.down || n.Free() < cpus-fitEps {
			continue
		}
		// Strict comparisons keep the first (lowest-index) node on ties.
		if best == nil ||
			(c.strategy == BestFit && n.Free() < best.Free()) ||
			(c.strategy == WorstFit && n.Free() > best.Free()) {
			best = n
		}
	}
	if best != nil {
		return best, nil
	}
	e := ErrNoCapacity{CPUs: cpus}
	for _, n := range c.nodes {
		if n.down {
			e.DownNodes++
			continue
		}
		e.LargestFree = max(e.LargestFree, n.Free())
		e.TotalFree += n.Free()
	}
	return nil, e
}

// scanAggregates re-sums TotalCapacity, AvailableCapacity and TotalUsed from
// the nodes.
func scanAggregates(c *Cluster) (total, avail, used float64) {
	for _, n := range c.nodes {
		total += n.Capacity
		if !n.down {
			avail += n.Capacity
		}
		used += n.used
	}
	return total, avail, used
}

func runEquivSequence(t *testing.T, seed int64, s Strategy) {
	rng := rand.New(rand.NewSource(seed))
	nNodes := 1 + rng.Intn(64)
	caps := make([]float64, nNodes)
	for i := range caps {
		caps[i] = float64(4 + rng.Intn(61)) // 4..64 CPUs
	}
	c := New(s, caps...)

	var live []Placement
	for op := 0; op < 300; op++ {
		switch u := rng.Float64(); {
		case u < 0.55 || len(live) == 0:
			cpus := 0.5 * float64(1+rng.Intn(16)) // 0.5 .. 8.0
			want, werr := scanPlace(c, cpus)
			p, err := c.Place(cpus)
			switch {
			case (err == nil) != (werr == nil):
				t.Fatalf("op %d: Place(%v) errs diverge: indexed %v, scan %v", op, cpus, err, werr)
			case err != nil:
				if err.Error() != werr.Error() {
					t.Fatalf("op %d: Place(%v) error diverges:\n  indexed: %v\n  scan:    %v", op, cpus, err, werr)
				}
			default:
				if p.Node != want {
					t.Fatalf("op %d: Place(%v) picked %s, scan picks %s", op, cpus, p.Node.Name, want.Name)
				}
				live = append(live, p)
			}
		case u < 0.80:
			k := rng.Intn(len(live))
			c.Release(live[k])
			live = append(live[:k], live[k+1:]...)
		case u < 0.92:
			c.nodes[rng.Intn(nNodes)].SetDown(rng.Float64() < 0.5)
		default:
			// CPU interference must not perturb placement or the index.
			c.nodes[rng.Intn(nNodes)].SetCPUFactor(0.25 + 1.5*rng.Float64())
		}
		total, avail, used := scanAggregates(c)
		if got := c.TotalUsed(); got != used {
			t.Fatalf("op %d: TotalUsed %v != scan %v", op, got, used)
		}
		if got := c.AvailableCapacity(); got != avail {
			t.Fatalf("op %d: AvailableCapacity %v != scan %v", op, got, avail)
		}
		if got := c.TotalCapacity(); got != total {
			t.Fatalf("op %d: TotalCapacity %v != scan %v", op, got, total)
		}
	}
}

// TestFreeIndexOrdering drives the treap directly through random re-keys and
// erases and checks the in-order traversal stays sorted by (free, index)
// with exactly the linked slots present — in both tie orders (ascending
// index for BestFit, descending for WorstFit).
func TestFreeIndexOrdering(t *testing.T) {
	for _, tieDesc := range []bool{false, true} {
		t.Run(fmt.Sprintf("tieDesc=%v", tieDesc), func(t *testing.T) {
			runFreeIndexOrdering(t, tieDesc)
		})
	}
}

func runFreeIndexOrdering(t *testing.T, tieDesc bool) {
	rng := rand.New(rand.NewSource(11))
	const n = 40
	var idx freeIndex
	idx.init(n, tieDesc)
	linked := make(map[int32]bool, n)
	free := make([]float64, n)
	for i := int32(0); i < n; i++ {
		free[i] = float64(rng.Intn(32))
		idx.insert(i, free[i])
		linked[i] = true
	}
	for op := 0; op < 2000; op++ {
		i := int32(rng.Intn(n))
		switch {
		case !linked[i]:
			free[i] = float64(rng.Intn(32))
			idx.insert(i, free[i])
			linked[i] = true
		case rng.Float64() < 0.3:
			idx.erase(i)
			linked[i] = false
		default:
			free[i] = float64(rng.Intn(32))
			idx.update(i, free[i])
		}

		var walk func(int32, []int32) []int32
		walk = func(cur int32, out []int32) []int32 {
			if cur == -1 {
				return out
			}
			out = walk(idx.s[cur].left, out)
			out = append(out, cur)
			return walk(idx.s[cur].right, out)
		}
		order := walk(idx.root, nil)
		want := 0
		for _, ok := range linked {
			if ok {
				want++
			}
		}
		if len(order) != want {
			t.Fatalf("op %d: traversal has %d slots, want %d", op, len(order), want)
		}
		for k := 1; k < len(order); k++ {
			a, b := order[k-1], order[k]
			tieBad := a > b
			if tieDesc {
				tieBad = a < b
			}
			if idx.s[a].free > idx.s[b].free || (idx.s[a].free == idx.s[b].free && tieBad) {
				t.Fatalf("op %d: traversal out of order at %d: (%v,%d) before (%v,%d)",
					op, k, idx.s[a].free, a, idx.s[b].free, b)
			}
		}
	}
}
