package cluster

// freeIndex is the maintained free-capacity index over up nodes: a treap
// keyed by (free CPUs, node index) with deterministic per-node priorities.
// It answers the placement query in O(log n) expected time with a single
// descent per strategy:
//
//   - BestFit (tieDesc=false, ties order by ascending index): ceil(request)
//     lands on the smallest (free, index) pair with free ≥ request — the
//     tightest fitting node, lowest index among equal-free ties.
//   - WorstFit (tieDesc=true, ties order by descending index): max() lands
//     on the largest free and, because equal-free ties sort lower indexes
//     later, directly on the lowest-index holder of that maximum.
//
// Keys are the exact float64 free values (Capacity − used) a linear
// best/worst-fit scan compares, and the tie order reproduces the scan's
// first-wins tie-break, so the index picks a byte-identical node sequence —
// pinned by TestIndexedPlaceMatchesReference.
//
// Node slots are fixed at construction (clusters never grow), so the treap
// lives in one flat per-node slot array with no allocation after New: an
// update is erase + reinsert of one slot, both iterative over a scratch
// descent stack. Priorities are a splitmix64 hash of the node index —
// deterministic across runs and platforms, no RNG state.
type freeIndex struct {
	s       []slot
	root    int32
	tieDesc bool
	// path is the scratch descent stack for insert's rotate-up pass. Treap
	// depth with hashed priorities is ~2·log2(n); 128 covers any plausible
	// fleet with enormous margin.
	path [128]int32
}

// slot is one treap node, 24 bytes: key (free), heap priority, children.
type slot struct {
	free        float64
	prio        uint32
	left, right int32
}

func (t *freeIndex) init(n int, tieDesc bool) {
	t.s = make([]slot, n)
	for i := 0; i < n; i++ {
		t.s[i].prio = uint32(splitmix64(uint64(i)+1) >> 32)
	}
	t.root = -1
	t.tieDesc = tieDesc
}

// less orders slots by (free, index), index direction per tieDesc.
func (t *freeIndex) less(a, b int32) bool {
	if t.s[a].free != t.s[b].free {
		return t.s[a].free < t.s[b].free
	}
	if t.tieDesc {
		return a > b
	}
	return a < b
}

// insert links slot i into the treap under the given key.
func (t *freeIndex) insert(i int32, free float64) {
	s := t.s
	s[i].free = free
	s[i].left, s[i].right = -1, -1
	if t.root == -1 {
		t.root = i
		return
	}
	top := 0
	for cur := t.root; ; {
		t.path[top] = cur
		top++
		if t.less(i, cur) {
			if s[cur].left == -1 {
				s[cur].left = i
				break
			}
			cur = s[cur].left
		} else {
			if s[cur].right == -1 {
				s[cur].right = i
				break
			}
			cur = s[cur].right
		}
	}
	// Rotate i up while it outranks its parent.
	for top > 0 {
		p := t.path[top-1]
		if s[p].prio >= s[i].prio {
			break
		}
		if s[p].left == i {
			s[p].left = s[i].right
			s[i].right = p
		} else {
			s[p].right = s[i].left
			s[i].left = p
		}
		top--
		t.relink(top, p, i)
	}
}

// erase unlinks slot i: navigate to it by its stored key, rotate it down
// until it has at most one child, then splice it out. The slot's key must
// not have changed since insert.
func (t *freeIndex) erase(i int32) {
	s := t.s
	parent := int32(-1)
	for cur := t.root; cur != i; {
		if cur == -1 {
			panic("cluster: free index erase of unlinked node")
		}
		parent = cur
		if t.less(i, cur) {
			cur = s[cur].left
		} else {
			cur = s[cur].right
		}
	}
	for {
		l, r := s[i].left, s[i].right
		if l == -1 || r == -1 {
			child := l
			if l == -1 {
				child = r
			}
			t.spliceChild(parent, i, child)
			return
		}
		// Rotate the higher-priority child above i, then keep sinking i.
		var up int32
		if s[l].prio > s[r].prio {
			s[i].left = s[l].right
			s[l].right = i
			up = l
		} else {
			s[i].right = s[r].left
			s[r].left = i
			up = r
		}
		t.spliceChild(parent, i, up)
		parent = up
	}
}

// relink points the parent at path depth top-1 (or the root) at repl, which
// just replaced old as the subtree head during insert's rotate-up.
func (t *freeIndex) relink(top int, old, repl int32) {
	if top == 0 {
		t.root = repl
		return
	}
	g := t.path[top-1]
	if t.s[g].left == old {
		t.s[g].left = repl
	} else {
		t.s[g].right = repl
	}
}

// spliceChild replaces parent's child old (or the root) with repl.
func (t *freeIndex) spliceChild(parent, old, repl int32) {
	switch {
	case parent == -1:
		t.root = repl
	case t.s[parent].left == old:
		t.s[parent].left = repl
	default:
		t.s[parent].right = repl
	}
}

// update re-keys slot i to the given free value.
func (t *freeIndex) update(i int32, free float64) {
	t.erase(i)
	t.insert(i, free)
}

// ceil returns the first slot in key order with free ≥ minFree, or -1.
func (t *freeIndex) ceil(minFree float64) int32 {
	best := int32(-1)
	for cur := t.root; cur != -1; {
		if t.s[cur].free >= minFree {
			best = cur
			cur = t.s[cur].left
		} else {
			cur = t.s[cur].right
		}
	}
	return best
}

// max returns the slot with the largest key, or -1 when empty.
func (t *freeIndex) max() int32 {
	cur := t.root
	if cur == -1 {
		return -1
	}
	for t.s[cur].right != -1 {
		cur = t.s[cur].right
	}
	return cur
}

// freeOf reads the stored key of a linked slot.
func (t *freeIndex) freeOf(i int32) float64 { return t.s[i].free }

// splitmix64 is the SplitMix64 finalizer — a fixed, platform-independent
// hash used for treap priorities.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
