package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"bionav/internal/navigate"
	"bionav/internal/store"
	"bionav/internal/workload"
	"bionav/navbench/harness"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric sets and
// workloads the driver prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(cfg.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end = %v, driver prints %v", got, endToEnd)
	}
	if got := names(cfg.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer = %v, driver prints %v", got, perLayer)
	}
	var ws []string
	for _, s := range specs {
		ws = append(ws, s.name)
	}
	if got := names(cfg.Workloads); !reflect.DeepEqual(got, ws) {
		t.Errorf("workloads = %v, driver has %v", got, ws)
	}
}

func smallInProc(t *testing.T) (*workload.Workload, *harness.InProc, *harness.Tracer) {
	t.Helper()
	w, err := workload.Generate(workload.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := harness.NewTracer(wallClock{})
	return w, harness.NewInProc(tr, wallClock{}, store.NewLive(w.Dataset), nil), tr
}

// TestOracleMatchesSimulate runs the nav_cost oracle against the
// in-process back-end: it must agree with navigate.SimulateToTarget, the
// check the benchmark applies over HTTP.
func TestOracleMatchesSimulate(t *testing.T) {
	w, b, tr := smallInProc(t)
	sn := w.Dataset.Snapshot()
	for _, q := range w.Queries {
		nav := navTree(sn, q.Spec.Keyword)
		target, ok := nav.NodeByConcept(q.Target)
		if !ok {
			t.Fatalf("%q: no target", q.Spec.Keyword)
		}
		want, err := navigate.SimulateToTarget(nav, serverPolicy(), target, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := oracle(context.Background(), b, nav, q.Spec.Keyword, target)
		if err != nil {
			t.Fatalf("%q: %v", q.Spec.Keyword, err)
		}
		if got != want.Cost.Navigation() {
			t.Errorf("%q: oracle cost %d, SimulateToTarget %d", q.Spec.Keyword, got, want.Cost.Navigation())
		}
	}
	// Every EXPAND recorded a ChooseCut child span (solver-cache hits
	// aside) under its navigate.expand span.
	spans := tr.Spans()
	for _, s := range spans {
		if s.Name == "core.choose_cut" && (s.Parent < 0 || spans[s.Parent].Name != "navigate.expand") {
			t.Fatalf("choose_cut span %d is not a child of navigate.expand", s.ID)
		}
	}
}

// TestExportReplayReproducesState drives seeded TOPDOWN users through the
// in-process back-end and replays each session's exported actions, the
// check the benchmark applies to /api/export.
func TestExportReplayReproducesState(t *testing.T) {
	w, b, _ := smallInProc(t)
	sp, _ := specByName("topdown")
	in := makeInputs(sp, w, 3, 20, time.Second)
	users := in.users()
	if failed := harness.Replay(context.Background(), b, users, in.arrivals, nil); failed != 0 {
		t.Fatalf("%d requests failed", failed)
	}
	sn := w.Dataset.Snapshot()
	for _, u := range users {
		last := u.Last()
		ns, ok := b.Session(last.Session)
		if !ok {
			t.Fatalf("session %s unknown", last.Session)
		}
		actions, err := ns.ExportedActions(0)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := navigate.ReplayActions(navTree(sn, u.Keywords()), serverPolicy(), actions)
		if err != nil {
			t.Fatal(err)
		}
		if got := harness.VisibleTree(replayed, sn.Tree); !reflect.DeepEqual(got, last.Tree) {
			t.Fatalf("user %d: replay does not reproduce the last state", u.ID())
		}
	}
}

// TestColdQueriesMissTheCache: the cold-query pool is large and every
// key matches between 67 and 486 citations.
func TestColdQueriesMissTheCache(t *testing.T) {
	w, err := workload.Generate(workload.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := specByName("cold-query")
	in := makeInputs(sp, w, 1, 10, time.Second)
	distinct := make(map[string]bool)
	for _, q := range in.cfg.Queries {
		distinct[q] = true
		if n := len(w.Dataset.Index.SearchQuery(q)); n < coldMinDocs || n > coldMaxDocs {
			t.Fatalf("%q matches %d citations", q, n)
		}
	}
	if len(distinct) < 1000 {
		t.Fatalf("only %d distinct cold queries", len(distinct))
	}
}

// TestQueryCountsDoNotVaryWithSeed: the seed decides which user gets
// which query, not how many users get each. topdown deals the Zipf counts
// of the Table I queries; cold-query takes one key from each result-size
// stratum of its pool, so no key repeats.
func TestQueryCountsDoNotVaryWithSeed(t *testing.T) {
	w, err := workload.Generate(workload.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	counts := func(in *inputs) map[string]int {
		out := make(map[string]int)
		for _, u := range in.users() {
			out[u.Keywords()]++
		}
		return out
	}
	top, _ := specByName("topdown")
	a, b := makeInputs(top, w, 1, 10, 10*time.Second), makeInputs(top, w, 2, 10, 10*time.Second)
	if !reflect.DeepEqual(counts(a), counts(b)) {
		t.Fatalf("topdown query counts differ between seeds: %v vs %v", counts(a), counts(b))
	}
	if reflect.DeepEqual(a.cfg.Assign, b.cfg.Assign) {
		t.Fatal("topdown: two seeds dealt the queries in the same order")
	}
	want := zipfCounts(100, len(w.Queries), zipfSkew)
	for r, n := range want {
		if got := counts(a)[w.Queries[r].Spec.Keyword]; got != n {
			t.Fatalf("query rank %d: %d users, want %d", r+1, got, n)
		}
	}
	cold, _ := specByName("cold-query")
	c := makeInputs(cold, w, 1, 20, 10*time.Second)
	for q, n := range counts(c) {
		if n > 1 {
			t.Fatalf("cold-query key %q drawn %d times", q, n)
		}
	}
}

func TestZipfCounts(t *testing.T) {
	got := zipfCounts(100, 10, zipfSkew)
	sum := 0
	for r, n := range got {
		sum += n
		if r > 0 && n > got[r-1] {
			t.Fatalf("counts not falling with rank: %v", got)
		}
	}
	if sum != 100 || got[9] == 0 {
		t.Fatalf("zipfCounts(100, 10) = %v", got)
	}
}
