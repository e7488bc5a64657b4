package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/index"
	"bionav/internal/server"
	"bionav/internal/store"
)

// loadReport is a parsed BENCH_load.json.
type loadReport struct {
	Header struct {
		Schema string `json:"schema"`
		Seed   uint64 `json:"seed"`
		Steps  int    `json:"steps"`
	}
	Steps []stepRecord
	Knee  kneeRecord
}

// sweepReport runs the command with args, writing the report to a temp
// file, and parses it.
func sweepReport(t *testing.T, args ...string) loadReport {
	t.Helper()
	out := filepath.Join(t.TempDir(), "BENCH_load.json")
	var stderr bytes.Buffer
	if err := run(context.Background(), append(args, "-out", out), new(bytes.Buffer), &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var rep loadReport
	if err := json.Unmarshal([]byte(lines[0]), &rep.Header); err != nil {
		t.Fatal(err)
	}
	for _, ln := range lines[1 : len(lines)-1] {
		var s stepRecord
		if err := json.Unmarshal([]byte(ln), &s); err != nil {
			t.Fatal(err)
		}
		if s.Record != "step" {
			t.Fatalf("record = %q, want step:\n%s", s.Record, raw)
		}
		rep.Steps = append(rep.Steps, s)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep.Knee); err != nil {
		t.Fatal(err)
	}
	if rep.Knee.Record != "knee" {
		t.Fatalf("last record = %q, want knee:\n%s", rep.Knee.Record, raw)
	}
	return rep
}

// TestRunSelfHostedSweep drives the whole binary end to end: synthesize
// the small workload, boot the loopback server, sweep three steps, and
// check the emitted BENCH_load.json parses with the expected records.
func TestRunSelfHostedSweep(t *testing.T) {
	rep := sweepReport(t,
		"-scale", "small", "-seed", "42",
		"-rate", "10", "-steps", "3",
		"-step-duration", "300ms", "-think", "2ms", "-actions", "4",
		"-slo-p99", "10s", "-max-shed-rate", "1",
	)
	if rep.Header.Schema != "bionav-load/v1" || rep.Header.Seed != 42 {
		t.Fatalf("header = %+v", rep.Header)
	}
	if len(rep.Steps) != 3 {
		t.Fatalf("got %d steps, want 3", len(rep.Steps))
	}
	var totalOK uint64
	for _, s := range rep.Steps {
		if s.Requests.Error != 0 {
			t.Fatalf("sweep produced errors: %+v", s)
		}
		totalOK += s.Requests.OK
	}
	if totalOK == 0 {
		t.Fatal("no successful requests across the sweep")
	}
	if k := rep.Knee; !k.Found || !k.LowerBound || k.Step != 2 || k.Rate != 40 {
		t.Fatalf("knee = %+v, want a lower bound at step 2 (40/s) under a 10s SLO", k)
	}
}

func TestRunRejectsUnknownScale(t *testing.T) {
	err := run(context.Background(), []string{"-scale", "galactic"}, new(bytes.Buffer), new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "galactic") {
		t.Fatalf("err = %v, want unknown-scale rejection", err)
	}
}

// TestRunRejectsBadInputs: the input checks fail before any server is
// started or contacted.
func TestRunRejectsBadInputs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-queries", " , "}, "no queries"},
		{[]string{"-rate", "0"}, "-rate"},
		{[]string{"-rate", "-1.5"}, "-rate"},
		{[]string{"-steps", "0"}, "-steps"},
		{[]string{"-steps", "-3"}, "-steps"},
	} {
		args := append([]string{"-addr", "http://127.0.0.1:1"}, tc.args...)
		err := run(context.Background(), args, new(bytes.Buffer), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

// testTarget boots a real server over a small deterministic dataset,
// wrapped by wrap (nil for none), and returns it with its URL and a
// popularity-ranked pool of real index terms.
func testTarget(t *testing.T, wrap func(http.Handler) http.Handler) (*server.Server, string, string) {
	t.Helper()
	tree := hierarchy.Generate(hierarchy.GenConfig{Seed: 71, Nodes: 1000, TopLevel: 12, MaxDepth: 8})
	corp := corpus.Generate(tree, corpus.GenConfig{
		Seed: 72, Citations: 300, MeanConcepts: 30, FirstID: 500, YearLo: 2000, YearHi: 2008,
	})
	ds := &store.Dataset{Tree: tree, Corpus: corp, Index: index.Build(corp)}
	// LRU eviction mid-run would read as spurious 404s.
	srv := server.New(ds, server.Config{MaxSessions: 10000})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	var pool []string
	for i := 0; i < 5; i++ {
		pool = append(pool, corp.At(i).Terms[0])
	}
	return srv, ts.URL, strings.Join(pool, ",")
}

// TestLoadgenSmoke is the `make load-test` gate: one fixed-seed open-loop
// step against an in-process server must complete with successful
// requests and no unexpected failures.
func TestLoadgenSmoke(t *testing.T) {
	_, url, pool := testTarget(t, nil)
	rep := sweepReport(t, "-addr", url, "-queries", pool, "-seed", "42",
		"-rate", "30", "-steps", "1", "-step-duration", "300ms", "-think", "2ms", "-actions", "4",
		"-slo-p99", "10s", "-max-shed-rate", "1")
	if len(rep.Steps) != 1 {
		t.Fatalf("got %d steps, want 1", len(rep.Steps))
	}
	s := rep.Steps[0]
	if s.Sessions == 0 {
		t.Fatal("no sessions launched")
	}
	if s.Requests.OK == 0 {
		t.Fatalf("no successful requests: %+v", s.Requests)
	}
	if s.Requests.Error != 0 || s.Requests.Timeout != 0 || s.Aborted != 0 {
		t.Fatalf("unexpected failures: %+v, %d sessions aborted", s.Requests, s.Aborted)
	}
	if s.Client.P99Ms <= 0 || s.Client.AchievedRps <= 0 {
		t.Fatalf("client p99 = %vms, achieved rps = %v; want both positive", s.Client.P99Ms, s.Client.AchievedRps)
	}
}

// TestSweepCrossChecksServer runs a small sweep and verifies the two
// sides of the measurement agree: the server's /api/ request-counter
// delta equals the client's request total whenever no client-side
// timeout abandoned a request mid-flight.
func TestSweepCrossChecksServer(t *testing.T) {
	_, url, pool := testTarget(t, nil)
	rep := sweepReport(t, "-addr", url, "-queries", pool, "-seed", "42",
		"-rate", "15", "-steps", "2", "-step-duration", "200ms", "-think", "2ms", "-actions", "4",
		"-slo-p99", "10s", "-max-shed-rate", "1")
	if len(rep.Steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(rep.Steps))
	}
	for _, s := range rep.Steps {
		if s.Requests.Total == 0 {
			t.Errorf("step %d sent no requests", s.Step)
		}
		if s.Requests.Timeout != 0 {
			continue // an abandoned request may or may not have been served
		}
		if got, want := s.Server.APIRequests, float64(s.Requests.Total); got != want {
			t.Errorf("step %d: server saw %v /api/ requests, client sent %v", s.Step, got, want)
		}
	}
	if k := rep.Knee; !k.Found || !k.LowerBound || k.Step != 1 {
		t.Errorf("knee = %+v, want a lower bound at the last step under a 10s SLO", k)
	}
}

// TestLoadgenDrainShed pins the drain contract from the client side: a
// step offered to a draining server is fully shed — every response is a
// 503 with Retry-After, classified as shed, never as error — and every
// session ends at its shed query.
func TestLoadgenDrainShed(t *testing.T) {
	srv, url, pool := testTarget(t, nil)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := sweepReport(t, "-addr", url, "-queries", pool,
		"-rate", "40", "-steps", "3", "-step-duration", "150ms", "-think", "2ms")
	if len(rep.Steps) != 1 {
		t.Fatalf("got %d steps, want the sweep to stop after the shed step 0", len(rep.Steps))
	}
	s := rep.Steps[0]
	if s.Requests.Total == 0 {
		t.Fatal("no requests issued")
	}
	if s.Requests.Shed != s.Requests.Total || s.Requests.Error != 0 {
		t.Fatalf("draining server: %+v, want every request shed", s.Requests)
	}
	if s.Aborted != s.Sessions {
		t.Fatalf("aborted %d of %d sessions, want all", s.Aborted, s.Sessions)
	}
	if rep.Knee.Found || rep.Knee.LowerBound {
		t.Fatalf("knee = %+v, want none found", rep.Knee)
	}
}

// TestBare503IsError pins the Retry-After contract: a 503 counts as shed
// only when it carries Retry-After; a bare 503 is an error, and so is any
// other failing status, Retry-After or not.
func TestBare503IsError(t *testing.T) {
	for _, tc := range []struct {
		status     int
		retryAfter bool
		shed       bool
	}{
		{http.StatusServiceUnavailable, false, false},
		{http.StatusServiceUnavailable, true, true},
		{http.StatusInternalServerError, true, false},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/metrics" {
				return // an empty exposition
			}
			if tc.retryAfter {
				w.Header().Set("Retry-After", "1")
			}
			http.Error(w, `{"error":"overloaded"}`, tc.status)
		}))
		rep := sweepReport(t, "-addr", ts.URL, "-queries", "q",
			"-rate", "40", "-steps", "1", "-step-duration", "150ms")
		ts.Close()
		n := rep.Steps[0].Requests
		if n.Total == 0 {
			t.Fatal("no requests issued")
		}
		want := counts{Total: n.Total, Error: n.Total}
		if tc.shed {
			want = counts{Total: n.Total, Shed: n.Total}
		}
		if n != want {
			t.Errorf("%d, Retry-After %v: requests = %+v, want %+v", tc.status, tc.retryAfter, n, want)
		}
	}
}

// TestSweepStopsAtFirstFailure is the knee regression at the command
// level. The target turns slow once step 0 is over (its second /metrics
// scrape), so step 1 misses the SLO: the sweep must not go on to step 2,
// and the knee is step 0, not a lower bound.
func TestSweepStopsAtFirstFailure(t *testing.T) {
	var scrapes atomic.Int32
	slow := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/metrics" {
				scrapes.Add(1)
			} else if scrapes.Load() >= 2 {
				time.Sleep(time.Second)
			}
			next.ServeHTTP(w, r)
		})
	}
	_, url, pool := testTarget(t, slow)
	rep := sweepReport(t, "-addr", url, "-queries", pool, "-seed", "42",
		"-rate", "20", "-steps", "3", "-step-duration", "200ms", "-think", "1ms", "-actions", "1",
		"-slo-p99", "300ms", "-max-shed-rate", "1")
	if len(rep.Steps) != 2 {
		t.Fatalf("got %d steps, want the sweep to stop after failing step 1", len(rep.Steps))
	}
	if p99 := rep.Steps[1].Client.P99Ms; p99 < 1000 {
		t.Fatalf("step 1 p99 = %vms, want the injected 1s stall", p99)
	}
	if k := rep.Knee; !k.Found || k.LowerBound || k.Step != 0 || k.Rate != 20 {
		t.Fatalf("knee = %+v, want step 0 (20/s), not a lower bound", k)
	}
	if rep.Header.Steps != 2 {
		t.Errorf("header steps = %d, want the 2 steps run", rep.Header.Steps)
	}
}

// TestFindKneeDisqualifiesErrorsAndShed is the step pass rule: p99 at
// most the SLO, shed at most the ceiling, and errors plus timeouts at
// most the same ceiling — fast failures must not pass a step.
func TestFindKneeDisqualifiesErrorsAndShed(t *testing.T) {
	const slo, ceiling = 100 * time.Millisecond, 0.01
	for _, tc := range []struct {
		name  string
		p99Ms float64
		n     counts
		want  bool
	}{
		{"all ok", 5, counts{Total: 100, OK: 100}, true},
		{"p99 at the SLO", 100, counts{Total: 100, OK: 100}, true},
		{"p99 over the SLO", 101, counts{Total: 100, OK: 100}, false},
		{"degraded is not a failure", 5, counts{Total: 100, OK: 50, Degraded: 50}, true},
		{"shed at the ceiling", 5, counts{Total: 100, OK: 99, Shed: 1}, true},
		{"shed over the ceiling", 5, counts{Total: 100, OK: 90, Shed: 10}, false},
		{"fast errors", 1, counts{Total: 100, OK: 40, Error: 60}, false},
		{"fast timeouts", 1, counts{Total: 100, OK: 50, Timeout: 50}, false},
		{"error plus timeout over the ceiling", 1, counts{Total: 100, OK: 98, Error: 1, Timeout: 1}, false},
		{"idle step", 0, counts{}, false},
	} {
		s := &stepRecord{Requests: tc.n}
		s.Client.P99Ms = tc.p99Ms
		if got := s.passes(slo, ceiling); got != tc.want {
			t.Errorf("%s: passes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStepInputsSeeded: one (seed, step) gives the same arrivals and
// query assignment every time; another seed or step gives others.
func TestStepInputsSeeded(t *testing.T) {
	const rate, window, pool = 50, 2 * time.Second, 10
	arr, assign := stepInputs(stepSeed(7, 1), rate, window, pool, 1.07)
	if len(arr) == 0 || len(arr) != len(assign) {
		t.Fatalf("%d arrivals, %d assignments", len(arr), len(assign))
	}
	for i, at := range arr {
		if at < 0 || at >= window || (i > 0 && at < arr[i-1]) {
			t.Fatalf("arrival %d at %v: want ascending within the window", i, at)
		}
		if assign[i] < 0 || assign[i] >= pool {
			t.Fatalf("assignment %d = %d, outside the pool", i, assign[i])
		}
	}
	arr2, assign2 := stepInputs(stepSeed(7, 1), rate, window, pool, 1.07)
	if !reflect.DeepEqual(arr, arr2) || !reflect.DeepEqual(assign, assign2) {
		t.Fatal("one seed gave two schedules")
	}
	if a, _ := stepInputs(stepSeed(8, 1), rate, window, pool, 1.07); reflect.DeepEqual(a, arr) {
		t.Error("another seed gave the same arrivals")
	}
	if a, _ := stepInputs(stepSeed(7, 2), rate, window, pool, 1.07); reflect.DeepEqual(a, arr) {
		t.Error("another step gave the same arrivals")
	}
}
