package core

import (
	"fmt"
	"slices"
	"testing"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/navtree"
)

// bigActiveTree builds a generated-corpus navigation tree large enough to
// force real partitioning.
func bigActiveTree(t *testing.T, seed uint64, nResults int) *ActiveTree {
	t.Helper()
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: seed, Nodes: 1200, TopLevel: 12, MaxDepth: 9})
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: seed + 1, Citations: nResults, MeanConcepts: 40, FirstID: 1, YearLo: 2000, YearHi: 2008,
	})
	nav := navtree.Build(corp, corp.IDs())
	if err := nav.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewActiveTree(nav)
}

func checkPartitions(t *testing.T, at *ActiveTree, root navtree.NodeID, parts []partition, k int) {
	t.Helper()
	if len(parts) == 0 || len(parts) > k {
		t.Fatalf("got %d partitions, want 1..%d", len(parts), k)
	}
	if parts[0].root != root {
		t.Fatalf("first partition root = %d, want component root %d", parts[0].root, root)
	}
	members := at.Members(root)
	covered := make(map[navtree.NodeID]int)
	for i, p := range parts {
		if i > 0 && parts[i-1].root >= p.root {
			t.Fatalf("partitions not ordered by root: %d then %d", parts[i-1].root, p.root)
		}
		if len(p.members) == 0 {
			t.Fatalf("partition %d empty", i)
		}
		foundRoot := false
		for _, m := range p.members {
			if _, dup := covered[m]; dup {
				t.Fatalf("node %d in two partitions", m)
			}
			covered[m] = i
			if m == p.root {
				foundRoot = true
			}
		}
		if !foundRoot {
			t.Fatalf("partition %d does not contain its root", i)
		}
	}
	if len(covered) != len(members) {
		t.Fatalf("partitions cover %d nodes, component has %d", len(covered), len(members))
	}
	// Connectivity: every member except the partition root must have its
	// navigation parent in the same partition.
	for _, p := range parts {
		own := make(map[navtree.NodeID]bool, len(p.members))
		for _, m := range p.members {
			own[m] = true
		}
		for _, m := range p.members {
			if m != p.root && !own[at.Nav().Parent(m)] {
				t.Fatalf("partition rooted at %d: member %d disconnected", p.root, m)
			}
		}
	}
}

func TestKPartitionInvariants(t *testing.T) {
	at := bigActiveTree(t, 51, 200)
	root := at.Nav().Root()
	for _, k := range []int{2, 4, 10, 16} {
		parts := kPartition(newCompIndex(at, root), k)
		checkPartitions(t, at, root, parts, k)
	}
}

func TestKPartitionSmallComponentIdentity(t *testing.T) {
	f := newPaperFixture(t)
	root := f.nodes["root"]
	n := f.at.ComponentSize(root)
	parts := kPartition(newCompIndex(f.at, root), n+5)
	if len(parts) != n {
		t.Fatalf("got %d singleton partitions, want %d", len(parts), n)
	}
	for _, p := range parts {
		if len(p.members) != 1 {
			t.Fatalf("partition %v not singleton", p)
		}
	}
}

func TestKPartitionDeterministic(t *testing.T) {
	at1 := bigActiveTree(t, 52, 150)
	at2 := bigActiveTree(t, 52, 150)
	p1 := kPartition(newCompIndex(at1, at1.Nav().Root()), 10)
	p2 := kPartition(newCompIndex(at2, at2.Nav().Root()), 10)
	if len(p1) != len(p2) {
		t.Fatalf("partition counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].root != p2[i].root || len(p1[i].members) != len(p2[i].members) {
			t.Fatalf("partition %d differs", i)
		}
	}
}

func TestKPartitionOnSubComponent(t *testing.T) {
	at := bigActiveTree(t, 53, 200)
	root := at.Nav().Root()
	// Detach a child with a decent subtree and partition that component.
	var sub navtree.NodeID = -1
	for _, c := range at.Nav().Children(root) {
		if at.DistinctUnder(root, c) > 20 {
			sub = c
			break
		}
	}
	if sub == -1 {
		t.Skip("no large child in generated tree")
	}
	if _, err := at.Expand(root, []Edge{{Parent: root, Child: sub}}); err != nil {
		t.Fatal(err)
	}
	parts := kPartition(newCompIndex(at, sub), 8)
	checkPartitions(t, at, sub, parts, 8)
}

func TestPartitionCompTreeStructure(t *testing.T) {
	at := bigActiveTree(t, 54, 200)
	root := at.Nav().Root()
	parts := kPartition(newCompIndex(at, root), 10)
	ct, err := partitionCompTree(at, parts)
	if err != nil {
		t.Fatal(err)
	}
	if ct.len() != len(parts) {
		t.Fatalf("compTree has %d nodes for %d partitions", ct.len(), len(parts))
	}
	if ct.Parent[0] != -1 {
		t.Fatal("compTree root parent wrong")
	}
	totalOwn := 0
	for i := 0; i < ct.len(); i++ {
		if i > 0 {
			if ct.Parent[i] < 0 || ct.Parent[i] >= i {
				t.Fatalf("node %d parent %d out of order", i, ct.Parent[i])
			}
			e := ct.NavEdge[i]
			if at.Nav().Parent(e.Child) != e.Parent {
				t.Fatalf("NavEdge %d is not a tree edge", i)
			}
			if e.Child != parts[i].root {
				t.Fatalf("NavEdge %d child %d != partition root %d", i, e.Child, parts[i].root)
			}
		}
		totalOwn += ct.Own[i]
	}
	// The union over all partitions must equal the component's distinct
	// count (the root component holds the full query result).
	full := ct.descMask[0]
	scratch := newBitset(at.Nav().DistinctTotal())
	if got, want := ct.distinct(full, scratch), at.Distinct(root); got != want {
		t.Fatalf("compTree distinct = %d, component distinct = %d", got, want)
	}
}

func TestIdentityCompTreeTooLarge(t *testing.T) {
	at := bigActiveTree(t, 55, 200)
	root := at.Nav().Root()
	members := at.Members(root)
	if len(members) <= maxOptNodes {
		t.Skip("component unexpectedly small")
	}
	if _, err := identityCompTree(at, root, members); err == nil {
		t.Fatal("identityCompTree accepted oversized component")
	}
}

// skewedActiveTree builds a component whose root carries most of the
// weight: H (40 results) over a leaf A and two chain heads C and D with
// two leaves each (C1, C2, D1, D2), every one of them with one result.
// The navigation root is expanded away, so H roots a component of eight
// members weighing 41, 2, 2, 2, 2, 2, 2, 2. It returns the active tree
// and the navigation node of each label.
func skewedActiveTree(t *testing.T) (*ActiveTree, map[string]navtree.NodeID) {
	t.Helper()
	labels := []string{"H", "A", "C", "C1", "C2", "D", "D1", "D2"}
	parents := []int{-1, 0, 0, 2, 2, 0, 5, 5}
	results := make([][]int, len(labels))
	for bit := 0; bit < 40; bit++ {
		results[0] = append(results[0], bit)
	}
	for i := 1; i < len(labels); i++ {
		results[i] = []int{39 + i}
	}
	at := buildActiveTree(t, parents, results, nil)
	node := make(map[string]navtree.NodeID)
	for n := 0; n < at.Nav().Len(); n++ {
		node[at.Nav().Label(n)] = n
	}
	for i, l := range labels {
		node[l] = node[fmt.Sprintf("n%d", i)]
	}
	root := at.Nav().Root()
	if _, err := at.Expand(root, []Edge{{Parent: root, Child: node["H"]}}); err != nil {
		t.Fatal(err)
	}
	return at, node
}

// TestKPartitionSingleClusterFallback pins the forced two-way split: at
// W = 55/k the heavy root detaches every child and still exceeds W, so W
// grows until nothing detaches, leaving one cluster. kPartition must then
// split off the heaviest child subtree: C and D tie at weight 6, and the
// first in child order, C, wins.
func TestKPartitionSingleClusterFallback(t *testing.T) {
	at, node := skewedActiveTree(t)
	h := node["H"]
	ix := newCompIndex(at, h)
	if want := []float64{41, 2, 2, 2, 2, 2, 2, 2}; !slices.Equal(ix.own, want) {
		t.Fatalf("component weights %v, want %v", ix.own, want)
	}
	ids := func(labels ...string) []navtree.NodeID {
		var out []navtree.NodeID
		for _, l := range labels {
			out = append(out, node[l])
		}
		return out
	}
	want := []partition{
		{root: h, parent: -1, members: ids("H", "A", "D", "D1", "D2")},
		{root: node["C"], parent: 0, members: ids("C", "C1", "C2")},
	}
	for _, k := range []int{2, 3} {
		parts := kPartition(newCompIndex(at, h), k)
		if len(parts) != len(want) {
			t.Fatalf("k=%d: %d partitions %v, want %v", k, len(parts), parts, want)
		}
		for i := range want {
			if parts[i].root != want[i].root || parts[i].parent != want[i].parent ||
				!slices.Equal(parts[i].members, want[i].members) {
				t.Fatalf("k=%d: partition %d = %+v, want %+v", k, i, parts[i], want[i])
			}
		}
		if msg := kPartitionMismatch(at, h, k); msg != "" {
			t.Fatalf("k=%d: %s", k, msg)
		}
	}

	// The reduced tree's supernode sizes are the partition member counts.
	ct, sizes, err := (&HeuristicReducedOpt{K: 2, Model: DefaultCostModel()}).reduce(at, h)
	if err != nil {
		t.Fatal(err)
	}
	if ct.len() != 2 || !slices.Equal(sizes, []int{5, 3}) {
		t.Fatalf("reduced to %d supernodes of sizes %v, want 2 of [5 3]", ct.len(), sizes)
	}
}

// kPartitionAllocs is the exact allocation count of indexing a component
// and partitioning it: a constant, independent of the component's size,
// its number of partitions and the threshold steps taken.
const kPartitionAllocs = 13

func TestKPartitionAllocsConstant(t *testing.T) {
	// upper is a component that no longer covers its root's subtree: the
	// root's first child has been cut away.
	upper := bigActiveTree(t, 53, 200)
	root := upper.Nav().Root()
	if _, err := upper.Expand(root, []Edge{{Parent: root, Child: upper.Nav().Children(root)[0]}}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		at   *ActiveTree
		k    int
	}{
		{"w8d3/k3", w8d3ActiveTree(t), 3},
		{"bushy/k2", bigActiveTree(t, 51, 200), 2},
		{"bushy/k10", bigActiveTree(t, 51, 200), 10},
		{"bushy/k16", bigActiveTree(t, 52, 400), 16},
		{"upper/k10", upper, 10},
	}
	for _, c := range cases {
		root := c.at.Nav().Root()
		got := testing.AllocsPerRun(20, func() {
			kPartition(newCompIndex(c.at, root), c.k)
		})
		if got != kPartitionAllocs {
			t.Errorf("%s (%d nodes): %v allocs, want exactly %d", c.name, c.at.ComponentSize(root), got, kPartitionAllocs)
		}
	}
}
