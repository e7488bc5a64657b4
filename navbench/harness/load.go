package harness

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadConfig describes one open-loop run. Sessions arrive on a fixed
// schedule whatever the server does (open loop); inside a session the
// user waits for each response and then thinks (closed loop, like a real
// user). Every request is timed from the moment it was due, so a stall
// that delays later requests — at the connection cap or in the driver
// itself — shows in their latency instead of silently thinning the load.
type LoadConfig struct {
	Clock    Clock
	Backend  Backend
	Conns    int             // requests in flight at once, at most (the connection cap)
	Start    time.Time       // time zero of the schedule
	Users    []*User         // one per session, in arrival order
	Arrivals []time.Duration // Users[i] arrives at Start+Arrivals[i]
	Ingests  []Ingest        // open-loop write stream, in time order; may be empty
	End      time.Duration   // requests due at or after Start+End are not issued
	Grace    time.Duration   // requests still running at Start+End+Grace are cancelled
	// BaseEpoch is the dataset epoch before the first ingest; query
	// epoch bounds count from it.
	BaseEpoch uint64
}

// Ingest is one write of the open-loop ingest stream.
type Ingest struct {
	At    time.Duration
	Batch []Citation
}

// Sample is one request's record. Times are offsets from Start: Due is
// when the request should have been sent, Woke when the driver got to
// it, Done when the response (or error) arrived.
type Sample struct {
	Op   Op
	User int // -1 for ingests
	Due  time.Duration
	Woke time.Duration
	Done time.Duration
	Err  error
	// Degraded marks a 200 EXPAND the server answered with the static
	// cut because its optimisation overran the budget.
	Degraded bool
}

// Failed reports whether the request missed its result: an error, a
// timeout, a shed or unexpected status, or a degraded EXPAND.
func (s Sample) Failed() bool { return s.Err != nil || s.Degraded }

// Latency is the request's latency measured from its due time.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Lag is how late the driver itself was in issuing the request.
func (s Sample) Lag() time.Duration { return s.Woke - s.Due }

// SessionEnd is a user whose query succeeded, with the bounds of the
// dataset epoch its session can be pinned to.
type SessionEnd struct {
	User             *User
	EpochLo, EpochHi uint64
	Failed           bool // a request of the session failed
}

// LoadResult is everything one run recorded.
type LoadResult struct {
	Samples  []Sample
	Sessions []SessionEnd          // in user order
	Epochs   map[uint64][]Citation // the batch each acknowledged ingest published, by epoch
}

type runner struct {
	cfg     LoadConfig
	stop    time.Time
	sem     chan struct{}
	acked   atomic.Uint64 // highest epoch an ingest response has reported
	started atomic.Uint64 // ingests sent so far

	mu       sync.Mutex
	samples  []Sample              // guarded by mu
	sessions []SessionEnd          // guarded by mu
	epochs   map[uint64][]Citation // guarded by mu
}

// Run drives one open-loop run and returns once every session has ended.
func Run(ctx context.Context, cfg LoadConfig) *LoadResult {
	if cfg.Conns < 1 {
		cfg.Conns = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &runner{
		cfg:    cfg,
		stop:   cfg.Start.Add(cfg.End),
		sem:    make(chan struct{}, cfg.Conns),
		epochs: make(map[uint64][]Citation),
	}
	r.acked.Store(cfg.BaseEpoch)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-cfg.Clock.After(r.stop.Add(cfg.Grace)):
			cancel()
		case <-ctx.Done():
		}
	}()

	// One launcher walks the merged arrival schedule; each session and
	// each ingest then runs on its own goroutine.
	type arrival struct {
		at   time.Duration
		user int // -1: ingest
		ing  int
	}
	var sched []arrival
	for i, at := range cfg.Arrivals {
		sched = append(sched, arrival{at: at, user: i})
	}
	for i, in := range cfg.Ingests {
		sched = append(sched, arrival{at: in.At, user: -1, ing: i})
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].at < sched[j].at })
	var work sync.WaitGroup
	for _, a := range sched {
		due := cfg.Start.Add(a.at)
		if !due.Before(r.stop) || !r.wait(ctx, due) {
			break
		}
		work.Add(1)
		if a.user >= 0 {
			go func(u *User) {
				defer work.Done()
				r.session(ctx, u, due)
			}(cfg.Users[a.user])
		} else {
			go func(in Ingest) {
				defer work.Done()
				r.ingest(ctx, in, due)
			}(cfg.Ingests[a.ing])
		}
	}
	work.Wait()
	cancel()
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.samples, func(i, j int) bool { return r.samples[i].Due < r.samples[j].Due })
	sort.Slice(r.sessions, func(i, j int) bool { return r.sessions[i].User.ID() < r.sessions[j].User.ID() })
	return &LoadResult{Samples: r.samples, Sessions: r.sessions, Epochs: r.epochs}
}

// wait blocks until the clock reaches t; false if the run was cancelled.
func (r *runner) wait(ctx context.Context, t time.Time) bool {
	select {
	case <-r.cfg.Clock.After(t):
		return true
	case <-ctx.Done():
		return false
	}
}

func (r *runner) session(ctx context.Context, u *User, due time.Time) {
	var lo, hi uint64
	failed := false
	for {
		req, ok := u.Next()
		if !ok || !due.Before(r.stop) || !r.wait(ctx, due) {
			break
		}
		if req.Op == OpQuery {
			lo = r.acked.Load()
		}
		resp, s := r.do(ctx, req, due)
		if req.Op == OpQuery {
			hi = r.cfg.BaseEpoch + r.started.Load()
		}
		failed = failed || s.Failed()
		if s.Err != nil {
			u.End()
			break
		}
		u.Observe(req, resp)
		due = r.cfg.Start.Add(s.Done).Add(u.Think())
	}
	if u.Last() != nil {
		r.mu.Lock()
		r.sessions = append(r.sessions, SessionEnd{User: u, EpochLo: lo, EpochHi: hi, Failed: failed})
		r.mu.Unlock()
	}
}

func (r *runner) ingest(ctx context.Context, in Ingest, due time.Time) {
	r.started.Add(1)
	resp, s := r.do(ctx, Request{Op: OpIngest, User: -1, Batch: in.Batch}, due)
	if s.Err != nil {
		return
	}
	for {
		old := r.acked.Load()
		if resp.Epoch <= old || r.acked.CompareAndSwap(old, resp.Epoch) {
			break
		}
	}
	r.mu.Lock()
	r.epochs[resp.Epoch] = in.Batch
	r.mu.Unlock()
}

// do issues req, which was due at due, through the connection cap and
// records its sample.
func (r *runner) do(ctx context.Context, req Request, due time.Time) (Response, Sample) {
	s := Sample{Op: req.Op, User: req.User, Due: due.Sub(r.cfg.Start)}
	s.Woke = r.cfg.Clock.Now().Sub(r.cfg.Start)
	var resp Response
	select {
	case r.sem <- struct{}{}:
		resp, s.Err = r.cfg.Backend.Do(ctx, req)
		<-r.sem
		s.Degraded = s.Err == nil && resp.State != nil && resp.State.Degraded
	case <-ctx.Done():
		s.Err = ctx.Err()
	}
	s.Done = r.cfg.Clock.Now().Sub(r.cfg.Start)
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
	return resp, s
}
