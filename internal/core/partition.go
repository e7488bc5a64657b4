package core

import (
	"cmp"
	"slices"

	"bionav/internal/navtree"
)

// This file implements the tree-partitioning step of Heuristic-ReducedOpt
// (§VI-B), adapted from the k-partition algorithm of Kundu & Misra [11]:
// processing the component subtree bottom-up, each node sheds its heaviest
// child cluster as a finished partition until its accumulated weight drops
// below the threshold W. Starting from W = Σw / k, W grows geometrically
// until at most k partitions remain, as the paper prescribes.
//
// The component is indexed once (compIndex). Each threshold sweep is then
// one allocation-free reverse pass over the index that sorts only the
// children of nodes still above W, and the final sweep's root flags assign
// every member to its partition in one forward pass.

// compIndex lays out the component rooted at nodes[0] in DFS pre-order,
// children in navigation order. The subtree of position i occupies
// positions [i, end[i]); its children are i+1, end[i+1], end[end[i+1]], …
// up to end[i].
type compIndex struct {
	nodes   []navtree.NodeID
	parent  []int     // local parent position; -1 for the root
	end     []int     // one past the last position of the subtree
	own     []float64 // node weight |res(n)| + 1
	maxKids int       // largest child count: the sweep's sort buffer size
}

// newCompIndex indexes the component rooted at root, which must be a
// component root.
func newCompIndex(at *ActiveTree, root navtree.NodeID) *compIndex {
	n := at.ComponentSize(root)
	ix := &compIndex{
		nodes:  make([]navtree.NodeID, 0, n),
		parent: make([]int, 0, n),
		end:    make([]int, n),
		own:    make([]float64, 0, n),
	}
	ix.add(at, root, root, -1)
	return ix
}

// add appends n and its component subtree; within a component, once a
// child belongs elsewhere its whole subtree does, so the walk prunes there.
func (ix *compIndex) add(at *ActiveTree, root, n navtree.NodeID, parent int) {
	i := len(ix.nodes)
	ix.nodes = append(ix.nodes, n)
	ix.parent = append(ix.parent, parent)
	// The +1 keeps zero-result nodes mergeable while still counting their
	// label-inspection cost.
	ix.own = append(ix.own, float64(at.nav.NumResults(n))+1)
	kids := 0
	for _, c := range at.nav.Children(n) {
		if at.compOf[c] == root {
			ix.add(at, root, c, i)
			kids++
		}
	}
	ix.maxKids = max(ix.maxKids, kids)
	ix.end[i] = len(ix.nodes)
}

// partition is one supernode of the reduced tree: a connected cluster of
// component members rooted at root.
type partition struct {
	root    navtree.NodeID
	parent  int              // index of the partition holding root's navigation parent; -1 for the first
	members []navtree.NodeID // in component pre-order
}

// kPartition splits the indexed component into at most k connected
// partitions. The result is ordered root-partition first, then by
// partition root ascending, which guarantees parents precede children in
// the reduced tree.
func kPartition(ix *compIndex, k int) []partition {
	n := len(ix.nodes)
	if k < 1 {
		k = 1
	}
	if n <= k {
		// Degenerate: every member its own partition, in pre-order.
		parts := make([]partition, n)
		for i, m := range ix.nodes {
			parts[i] = partition{root: m, parent: ix.parent[i], members: ix.nodes[i : i+1 : i+1]}
		}
		return parts
	}
	total := 0.0
	for _, w := range ix.own {
		total += w
	}

	acc := make([]float64, n)
	isRoot := make([]bool, n)
	buf := make([]cluster, 0, ix.maxKids)
	w := total / float64(k)
	for {
		roots := ix.sweep(w, acc, isRoot, buf)
		if roots <= k {
			if roots == 1 {
				// Skewed weights can overshoot the threshold and leave a
				// single cluster, which gives Opt-EdgeCut nothing to cut:
				// force a two-way split on the heaviest child subtree.
				isRoot[ix.heaviestChild()] = true
				roots++
			}
			return ix.collect(isRoot, roots)
		}
		w *= 1.5
	}
}

// cluster is a child's remaining cluster, a candidate for detachment.
type cluster struct {
	node   navtree.NodeID
	pos    int
	weight float64
}

// heavierFirst orders clusters by weight descending, ties by root ID
// ascending, so detachment is deterministic.
func heavierFirst(a, b cluster) int {
	return cmp.Or(cmp.Compare(b.weight, a.weight), cmp.Compare(a.node, b.node))
}

// sweep runs one bottom-up pass with threshold w and returns the number of
// partitions. Each node's cluster weight is its own weight plus its
// children's remaining clusters, in child order; while it exceeds w the
// heaviest child clusters are detached. acc receives the remaining cluster
// weights and isRoot the partition roots (the component root included);
// buf is scratch with capacity for the widest node's children.
func (ix *compIndex) sweep(w float64, acc []float64, isRoot []bool, buf []cluster) int {
	roots := 1
	for i := len(ix.nodes) - 1; i >= 0; i-- {
		isRoot[i] = false
		a := ix.own[i]
		for c := i + 1; c < ix.end[i]; c = ix.end[c] {
			a += acc[c]
		}
		if a > w {
			buf = buf[:0]
			for c := i + 1; c < ix.end[i]; c = ix.end[c] {
				buf = append(buf, cluster{node: ix.nodes[c], pos: c, weight: acc[c]})
			}
			slices.SortFunc(buf, heavierFirst)
			for _, kd := range buf {
				if a <= w {
					break
				}
				isRoot[kd.pos] = true
				roots++
				a -= kd.weight
			}
		}
		acc[i] = a
	}
	isRoot[0] = true
	return roots
}

// heaviestChild returns the position of the component root's child whose
// subtree carries the most weight (the first in child order on ties). The
// component is guaranteed to have a child edge (callers reject singletons).
func (ix *compIndex) heaviestChild() int {
	best, bestWeight := -1, -1.0
	for c := 1; c < ix.end[0]; c = ix.end[c] {
		w := 0.0
		for _, o := range ix.own[c:ix.end[c]] {
			w += o
		}
		if w > bestWeight {
			best, bestWeight = c, w
		}
	}
	return best
}

// collect materializes the partitions flagged in isRoot: each member joins
// the partition of its nearest flagged ancestor-or-self. Partitions are
// ordered by root ID ascending; since parents have smaller IDs than their
// children, the component root comes first.
func (ix *compIndex) collect(isRoot []bool, nroots int) []partition {
	rootPos := make([]int, 0, nroots)
	for i, r := range isRoot {
		if r {
			rootPos = append(rootPos, i)
		}
	}
	slices.SortFunc(rootPos, func(a, b int) int { return cmp.Compare(ix.nodes[a], ix.nodes[b]) })
	if rootPos[0] != 0 {
		panic("core: partition ordering violated")
	}
	part := make([]int, len(ix.nodes))
	for j, p := range rootPos {
		part[p] = j
	}
	count := make([]int, nroots)
	count[0] = 1
	for i := 1; i < len(ix.nodes); i++ {
		if !isRoot[i] {
			part[i] = part[ix.parent[i]]
		}
		count[part[i]]++
	}
	parts := make([]partition, nroots)
	backing := make([]navtree.NodeID, len(ix.nodes))
	off := 0
	for j, p := range rootPos {
		parts[j] = partition{root: ix.nodes[p], parent: -1, members: backing[off : off : off+count[j]]}
		if j > 0 {
			parts[j].parent = part[ix.parent[p]]
		}
		off += count[j]
	}
	for i, m := range ix.nodes {
		parts[part[i]].members = append(parts[part[i]].members, m)
	}
	return parts
}
