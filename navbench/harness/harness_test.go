package harness

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock only moves when the test sets it.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	waits []fakeWait
}

type fakeWait struct {
	at time.Time
	ch chan struct{}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(t time.Time) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan struct{})
	if !t.After(c.now) {
		close(ch)
		return ch
	}
	c.waits = append(c.waits, fakeWait{at: t, ch: ch})
	return ch
}

func (c *fakeClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
	kept := c.waits[:0]
	for _, w := range c.waits {
		if w.at.After(t) {
			kept = append(kept, w)
		} else {
			close(w.ch)
		}
	}
	c.waits = kept
}

// stallBackend holds user 0's request until release is closed.
type stallBackend struct {
	started chan struct{}
	release chan struct{}
}

func (b *stallBackend) Do(ctx context.Context, req Request) (Response, error) {
	if req.User == 0 {
		close(b.started)
		select {
		case <-b.release:
		case <-ctx.Done():
			return Response{}, ctx.Err()
		}
	}
	return Response{State: &State{Session: "s"}}, nil
}

// TestStallRaisesLaterLatency is the coordinated-omission check: user 0's
// request stalls for 500 ms on the only connection; user 1, due at 10 ms,
// must report the 490 ms it waited behind the stall, measured from its
// due time, although its own service time is zero. A driver that timed
// from the send would report 0.
func TestStallRaisesLaterLatency(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	b := &stallBackend{started: make(chan struct{}), release: make(chan struct{})}
	cfg := &UserConfig{Kind: Topdown, Queries: []string{"q"}}
	done := make(chan *LoadResult)
	go func() {
		done <- Run(context.Background(), LoadConfig{
			Clock: clk, Backend: b, Conns: 1, Start: t0,
			Users:    []*User{NewUser(cfg, 1, 0), NewUser(cfg, 1, 1)},
			Arrivals: []time.Duration{0, 10 * time.Millisecond},
			End:      time.Second, Grace: time.Minute,
		})
	}()
	<-b.started
	clk.Set(t0.Add(10 * time.Millisecond))
	clk.Set(t0.Add(500 * time.Millisecond))
	close(b.release)
	res := <-done
	if len(res.Samples) != 2 {
		t.Fatalf("%d samples, want 2", len(res.Samples))
	}
	want := map[int]time.Duration{0: 500 * time.Millisecond, 1: 490 * time.Millisecond}
	for _, s := range res.Samples {
		if s.Latency() != want[s.User] {
			t.Errorf("user %d: latency from due time = %v, want %v", s.User, s.Latency(), want[s.User])
		}
	}
}

// degradedBackend answers every request with a degraded state.
type degradedBackend struct{}

func (degradedBackend) Do(context.Context, Request) (Response, error) {
	return Response{State: &State{Session: "s", Degraded: true}}, nil
}

// TestDegradedCountsAsFailed: a 200 flagged degraded (an EXPAND that fell
// back to the static cut) is a failed request that misses every latency
// limit, and its session is left out of the export checks.
func TestDegradedCountsAsFailed(t *testing.T) {
	t0 := time.Unix(1000, 0)
	cfg := &UserConfig{Kind: Topdown, Queries: []string{"q"}}
	res := Run(context.Background(), LoadConfig{
		Clock: &fakeClock{now: t0}, Backend: degradedBackend{}, Conns: 1, Start: t0,
		Users: []*User{NewUser(cfg, 1, 0)}, Arrivals: []time.Duration{0},
		End: time.Second, Grace: time.Minute,
	})
	if res.Failed() != 1 || !res.Samples[0].Degraded {
		t.Fatalf("failed = %d, samples %+v: want the degraded response counted as failed", res.Failed(), res.Samples)
	}
	if lat := res.Latencies(NumOps, time.Hour); len(lat) != 1 || lat[0] != float64(time.Hour/time.Millisecond) {
		t.Errorf("latencies = %v, want the failed latency", lat)
	}
	if len(res.Sessions) != 1 || !res.Sessions[0].Failed {
		t.Errorf("sessions = %+v, want one failed session", res.Sessions)
	}
}

// TestFindKneeStopsAtFirstFailure is the pass/fail/pass regression: a
// rate that passes above a failing one must not become the knee.
func TestFindKneeStopsAtFirstFailure(t *testing.T) {
	pass := func(r float64) bool { return r <= 6 || r >= 12 }
	k := FindKnee(pass, 4, 64, 3)
	if k.Rate != 6 || k.LowerBound {
		t.Fatalf("knee = %+v, want rate 6 (last pass before the first failure)", k)
	}
	for _, s := range k.Steps {
		if s.Rate > 8 {
			t.Errorf("searched %v above the first failure at 8", s.Rate)
		}
	}
}

func TestFindKneeLowerBound(t *testing.T) {
	k := FindKnee(func(float64) bool { return true }, 4, 20, 3)
	if k.Rate != 20 || !k.LowerBound {
		t.Fatalf("knee = %+v, want lower bound 20", k)
	}
	want := []float64{4, 8, 16, 20}
	for i, s := range k.Steps {
		if s.Rate != want[i] {
			t.Fatalf("steps = %+v, want rates %v", k.Steps, want)
		}
	}
}

func TestFindKneeFirstStepFails(t *testing.T) {
	k := FindKnee(func(r float64) bool { return r < 3 }, 8, 64, 2)
	// Bracket (0, 8): 4 fails, 2 passes.
	if k.Rate != 2 || k.LowerBound {
		t.Fatalf("knee = %+v, want 2", k)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},
		{ID: 3, Parent: 0, Start: 60, End: 70},
		{ID: 4, Parent: 3, Start: 60, End: 65},
		{ID: 5, Parent: 0, Start: 95, End: 120}, // clipped to the parent
	}
	got := SelfTimes(spans)
	want := []time.Duration{100 - 40 - 10 - 5, 20, 30, 5, 5, 25}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
}

func TestQuantileAndTail(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if HasTail(999, 0.99) || !HasTail(1000, 0.99) || !HasTail(100, 0.9) {
		t.Error("HasTail must demand 10 samples beyond the percentile")
	}
}

// treeBackend answers every request with the same three-node tree.
type treeBackend struct{ log []Request }

func (b *treeBackend) Do(_ context.Context, req Request) (Response, error) {
	b.log = append(b.log, req)
	tree := Node{Node: 0, Count: 9, Expandable: true, Children: []Node{
		{Node: 1, Count: 5, Expandable: true}, {Node: 2, Count: 4},
	}}
	return Response{State: &State{Session: "s1", Tree: tree}}, nil
}

// TestUserIsSeededAndValid: the same (seed, id) replays the same script,
// and the script only expands expandable nodes and only backtracks what
// it expanded.
func TestUserIsSeededAndValid(t *testing.T) {
	cfg := &UserConfig{Kind: Topdown, Queries: []string{"a", "b", "c"}, Actions: 40}
	drive := func(seed uint64, id int) []Request {
		b := &treeBackend{}
		if failed := Replay(context.Background(), b, []*User{NewUser(cfg, seed, id)}, []time.Duration{0}, nil); failed != 0 {
			t.Fatalf("%d failures", failed)
		}
		return b.log
	}
	for id := 0; id < 20; id++ {
		a, b := drive(7, id), drive(7, id)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("user %d: two replays differ", id)
		}
		depth := 0
		for _, r := range a[1:] {
			switch r.Op {
			case OpExpand:
				if r.Node == 2 {
					t.Fatalf("user %d expanded a leaf", id)
				}
				depth++
			case OpBacktrack:
				if depth == 0 {
					t.Fatalf("user %d backtracked past its first state", id)
				}
				depth--
			}
		}
	}
	if reflect.DeepEqual(drive(7, 0), drive(8, 0)) {
		t.Error("different seeds gave the same script")
	}
}

// TestQuietSeconds keeps the seconds at or below the median steal share,
// ties included, and keeps failed samples from noisy seconds.
func TestQuietSeconds(t *testing.T) {
	quiet := QuietSeconds([]float64{0.10, 0, 0.02, 0, 0.30})
	if want := []bool{false, true, true, true, false}; !reflect.DeepEqual(quiet, want) {
		t.Fatalf("QuietSeconds = %v, want %v", quiet, want)
	}
	if q := QuietSeconds([]float64{0, 0, 0}); !reflect.DeepEqual(q, []bool{true, true, true}) {
		t.Fatalf("an all-quiet phase keeps %v", q)
	}
	r := &LoadResult{Samples: []Sample{
		{Op: OpQuery, Due: 500 * time.Millisecond, Done: time.Second},
		{Op: OpQuery, Due: 1500 * time.Millisecond, Done: 2 * time.Second},
		{Op: OpQuery, Due: 4200 * time.Millisecond, Err: context.DeadlineExceeded},
		{Op: OpExpand, Due: 4300 * time.Millisecond, Done: 4400 * time.Millisecond},
	}}
	got := r.InSeconds(quiet).Samples
	if len(got) != 2 || got[0].Due != 1500*time.Millisecond || got[1].Err == nil {
		t.Fatalf("InSeconds kept %+v", got)
	}
}
