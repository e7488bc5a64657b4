package harness

import (
	"context"
	"sort"
	"time"
)

// Replay drives the same schedule Run would, serially: sessions and
// ingests are served in arrival order, each session running its whole
// script (without think time) before the next arrival. It is the traced
// run's driver; users must be fresh (not yet driven). It returns the
// number of failed requests.
func Replay(ctx context.Context, b Backend, users []*User, arrivals []time.Duration, ingests []Ingest) int {
	type arrival struct {
		at   time.Duration
		user int // -1: ingest
		ing  int
	}
	var sched []arrival
	for i, at := range arrivals {
		sched = append(sched, arrival{at: at, user: i})
	}
	for i, in := range ingests {
		sched = append(sched, arrival{at: in.At, user: -1, ing: i})
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].at < sched[j].at })
	failed := 0
	for _, a := range sched {
		if ctx.Err() != nil {
			break
		}
		if a.user < 0 {
			if _, err := b.Do(ctx, Request{Op: OpIngest, User: -1, Batch: ingests[a.ing].Batch}); err != nil {
				failed++
			}
			continue
		}
		u := users[a.user]
		for {
			req, ok := u.Next()
			if !ok {
				break
			}
			resp, err := b.Do(ctx, req)
			if err != nil {
				failed++
				break
			}
			u.Observe(req, resp)
			u.Think() // keeps the user's stream aligned with Run's
		}
	}
	return failed
}
