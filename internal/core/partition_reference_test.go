package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"bionav/internal/navtree"
	"bionav/internal/workload"
)

// This file retains the recursive k-partition implementation — one
// sweepWeight recursion per threshold step, a per-node kids slice sorted
// with sort.Slice, and member lists collected by per-root PreOrder walks —
// as a differential oracle for the production compIndex sweep. Both sum
// weights in the same order (own weight, then child clusters in navigation
// order, then detachments in sorted order), so the differential tests
// demand identical partitions: same roots, same members, same order.

// refPartition is one partition as the oracle reports it.
type refPartition struct {
	root    navtree.NodeID
	members []navtree.NodeID
}

func refWeight(at *ActiveTree, n navtree.NodeID) float64 {
	return float64(at.nav.NumResults(n)) + 1
}

// refKPartition is the oracle's kPartition: at most k connected
// partitions of the component rooted at root, ordered root-partition
// first, then by partition root ascending (every member its own partition,
// in pre-order, when the component has at most k members).
func refKPartition(at *ActiveTree, root navtree.NodeID, k int) []refPartition {
	members := at.Members(root)
	if k < 1 {
		k = 1
	}
	if len(members) <= k {
		parts := make([]refPartition, len(members))
		for i, m := range members {
			parts[i] = refPartition{root: m, members: []navtree.NodeID{m}}
		}
		return parts
	}
	total := 0.0
	for _, m := range members {
		total += refWeight(at, m)
	}

	w := total / float64(k)
	for {
		roots := []navtree.NodeID{root}
		refSweepWeight(at, root, root, w, &roots)
		if len(roots) <= k {
			if len(roots) == 1 {
				roots = append(roots, refHeaviestChildSubtree(at, root))
			}
			return refCollectPartitions(at, root, roots)
		}
		w *= 1.5
	}
}

// refSweepWeight post-order-processes node n and returns the weight of its
// remaining cluster; detached child-cluster roots are appended to roots.
func refSweepWeight(at *ActiveTree, compRoot, n navtree.NodeID, w float64, roots *[]navtree.NodeID) float64 {
	type kid struct {
		root   navtree.NodeID
		weight float64
	}
	own := refWeight(at, n)
	var kids []kid
	acc := own
	for _, c := range at.nav.Children(n) {
		if at.compOf[c] != compRoot {
			continue
		}
		kw := refSweepWeight(at, compRoot, c, w, roots)
		kids = append(kids, kid{root: c, weight: kw})
		acc += kw
	}
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].weight != kids[j].weight {
			return kids[i].weight > kids[j].weight
		}
		return kids[i].root < kids[j].root
	})
	for _, kd := range kids {
		if acc <= w {
			break
		}
		*roots = append(*roots, kd.root)
		acc -= kd.weight
	}
	return acc
}

// refHeaviestChildSubtree returns the component child of root whose
// subtree carries the most weight, summed in pre-order.
func refHeaviestChildSubtree(at *ActiveTree, root navtree.NodeID) navtree.NodeID {
	var best navtree.NodeID = -1
	bestWeight := -1.0
	for _, c := range at.nav.Children(root) {
		if at.compOf[c] != root {
			continue
		}
		w := 0.0
		at.nav.PreOrder(c, func(n navtree.NodeID) bool {
			if at.compOf[n] != root {
				return false
			}
			w += refWeight(at, n)
			return true
		})
		if w > bestWeight {
			best, bestWeight = c, w
		}
	}
	return best
}

// refCollectPartitions gives each partition its root's subtree pruned at
// foreign partition roots, ordered by partition root ascending.
func refCollectPartitions(at *ActiveTree, root navtree.NodeID, roots []navtree.NodeID) []refPartition {
	isRoot := make(map[navtree.NodeID]bool, len(roots))
	for _, r := range roots {
		isRoot[r] = true
	}
	sorted := append([]navtree.NodeID(nil), roots...)
	sort.Ints(sorted)
	parts := make([]refPartition, len(sorted))
	for i, r := range sorted {
		p := refPartition{root: r}
		at.nav.PreOrder(r, func(n navtree.NodeID) bool {
			if at.compOf[n] != root || (n != r && isRoot[n]) {
				return false
			}
			p.members = append(p.members, n)
			return true
		})
		parts[i] = p
	}
	return parts
}

// kPartitionMismatch reports how the production kPartition differs from
// the oracle on the component rooted at root, or "" when it does not:
// roots, members and their order must be identical, and each partition's
// parent index must name the partition holding its root's parent.
func kPartitionMismatch(at *ActiveTree, root navtree.NodeID, k int) string {
	got := kPartition(newCompIndex(at, root), k)
	want := refKPartition(at, root, k)
	if len(got) != len(want) {
		return fmt.Sprintf("%d partitions, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i].root != want[i].root || !slices.Equal(got[i].members, want[i].members) {
			return fmt.Sprintf("partition %d = {%d %v}, oracle {%d %v}",
				i, got[i].root, got[i].members, want[i].root, want[i].members)
		}
		wantParent := -1
		if i > 0 {
			wantParent = slices.IndexFunc(want, func(p refPartition) bool {
				return slices.Contains(p.members, at.nav.Parent(want[i].root))
			})
		}
		if got[i].parent != wantParent {
			return fmt.Sprintf("partition %d parent = %d, want %d", i, got[i].parent, wantParent)
		}
	}
	return ""
}

// TestKPartitionMatchesReference runs the production kPartition against the
// oracle on the ten Table I queries of the default workload, with k ∈ {2, 3,
// 10, 20}, at every component visible along a TOPDOWN-oracle navigation to
// the query's target and along expand/backtrack walks that expand every
// expandable component, to depth 3.
func TestKPartitionMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale workload")
	}
	w, err := workload.Generate(workload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pol := NewHeuristicReducedOpt()
	cases := 0
	for qi := range w.Queries {
		q := &w.Queries[qi]
		nav, target, err := w.NavTree(q)
		if err != nil {
			t.Fatal(err)
		}
		at := NewActiveTree(nav)
		seen := make(map[string]bool)
		checkAll := func() {
			for _, r := range at.VisibleRoots() {
				members := at.Members(r)
				key := fmt.Sprint(members)
				if seen[key] {
					continue
				}
				seen[key] = true
				for _, k := range []int{2, 3, 10, 20} {
					if msg := kPartitionMismatch(at, r, k); msg != "" {
						t.Fatalf("%s: component %d (%d nodes), k=%d: %s", q.Spec.Keyword, r, len(members), k, msg)
					}
					cases++
				}
			}
		}
		expand := func(r navtree.NodeID) {
			cut, err := pol.ChooseCut(context.Background(), at, r)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := at.Expand(r, cut); err != nil {
				t.Fatal(err)
			}
		}

		// TOPDOWN oracle: expand the component hiding the target.
		checkAll()
		for !at.IsVisible(target) {
			expand(at.ComponentOf(target))
			checkAll()
		}
		for at.Backtrack() == nil {
		}

		var walk func(depth int)
		walk = func(depth int) {
			checkAll()
			if depth == 0 {
				return
			}
			for _, r := range at.VisibleRoots() {
				if at.ComponentSize(r) < 2 {
					continue
				}
				expand(r)
				walk(depth - 1)
				if err := at.Backtrack(); err != nil {
					t.Fatal(err)
				}
			}
		}
		walk(3)
	}
	t.Logf("%d (component, k) cases identical", cases)
}
