package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"bionav/internal/core"
	"bionav/internal/navigate"
	"bionav/internal/navtree"
	"bionav/internal/obs"
	"bionav/internal/rng"
	"bionav/internal/store"
	"bionav/internal/workload"
	"bionav/navbench/harness"
)

const (
	// failedLatency stands in for a failed request's latency: it misses
	// every limit.
	failedLatency = time.Hour
	// grace bounds how long requests may run past the end of a phase.
	grace = 5 * time.Second
	// exportSample sessions of the last exportWindow are export-checked.
	exportSample, exportWindow = 5, 50
	// clockTick is the unit of /proc/<pid>/stat utime and stime
	// (USER_HZ, 100 on Linux).
	clockTick = 10 * time.Millisecond
)

// fixedRate runs the workload's fixed-rate phase against srv, then the
// output checks, and records the end-to-end metrics and the server-side
// counter deltas.
func (b *bencher) fixedRate(ctx context.Context, srv *server, in *inputs, d time.Duration) error {
	before, err := srv.metrics(ctx)
	if err != nil {
		return err
	}
	cpu0, err := srv.cpuTicks()
	if err != nil {
		return err
	}
	steal0, total0, err := hostTicks()
	if err != nil {
		return err
	}
	logBefore := fileSize(srv.db, "ingestlog.tbl")
	start := time.Now().Add(20 * time.Millisecond)
	stealc := make(chan stealResult, 1)
	go func() {
		steal, err := stealPerSecond(ctx, start, int(d/time.Second))
		stealc <- stealResult{steal, err}
	}()
	lr := harness.Run(ctx, harness.LoadConfig{
		Clock: wallClock{}, Backend: srv.api, Conns: b.conns,
		Start: start,
		Users: in.users(), Arrivals: in.arrivals, Ingests: in.ingests,
		End: d, Grace: grace,
	})
	sr := <-stealc
	if sr.err != nil {
		return sr.err
	}
	cpu1, err := srv.cpuTicks()
	if err != nil {
		return err
	}
	steal1, total1, err := hostTicks()
	if err != nil {
		return err
	}
	b.res.set("host.steal_pct", 100*ratio(float64(steal1-steal0), float64(total1-total0)), "%", 1)
	after, err := srv.metrics(ctx)
	if err != nil {
		return err
	}
	delta := after.Delta(before)
	quiet := harness.QuietSeconds(sr.steal)
	b.endToEnd(lr, lr.InSeconds(quiet))
	b.res.set("host.quiet_seconds", float64(count(quiet)), "s", len(quiet))
	b.serverCounters(delta, lr, time.Duration(cpu1-cpu0)*clockTick)
	b.checkDegraded(delta, lr)
	userBytes := 0
	for _, batch := range lr.Epochs {
		raw, err := json.Marshal(batch)
		if err != nil {
			return err
		}
		userBytes += len(raw)
	}
	b.res.set("store.log_bytes_per_user_byte", ratio(float64(fileSize(srv.db, "ingestlog.tbl")-logBefore), float64(userBytes)), "ratio", len(lr.Epochs))

	chain, err := snapshotChain(b.w, lr)
	if err != nil {
		b.res.fail(err.Error())
	} else {
		b.checkExports(ctx, srv, lr, chain)
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	b.res.set("peak_rss_mb", rss, "MB", 1)
	return nil
}

// stealResult is what stealPerSecond returns.
type stealResult struct {
	steal []float64
	err   error
}

// stealPerSecond reads the host's CPU ticks at start and at every second
// after it, n times, and returns the share of each second's ticks the
// hypervisor gave to other guests.
func stealPerSecond(ctx context.Context, start time.Time, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	var steal0, total0 int64
	for k := 0; k <= n; k++ {
		select {
		case <-time.After(time.Until(start.Add(time.Duration(k) * time.Second))):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		steal, total, err := hostTicks()
		if err != nil {
			return nil, err
		}
		if k > 0 {
			out = append(out, ratio(float64(steal-steal0), float64(total-total0)))
		}
		steal0, total0 = steal, total
	}
	return out, nil
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// endToEnd records the client-side metrics of a fixed-rate phase. Counts
// come from every sample, latencies from the samples in quiet: those due
// in the phase's seconds with the least hypervisor steal, and every
// failure. The result file also keeps the latencies over all seconds,
// under names prefixed "all.".
func (b *bencher) endToEnd(lr, quiet *harness.LoadResult) {
	failed := lr.Failed()
	b.res.Attempted, b.res.Failed = len(lr.Samples), failed
	for _, s := range lr.Samples {
		var se *harness.StatusError
		if errors.As(s.Err, &se) && se.Code >= 400 && se.Code < 500 {
			b.res.fail(fmt.Sprintf("%s: unexpected status from the always-valid user model: %v", s.Op, s.Err))
		}
	}
	n := len(lr.Samples)
	b.res.set("ok_frac", ratio(float64(n-failed), float64(n)), "ratio", n)
	b.res.set("failed_frac", ratio(float64(failed), float64(n)), "ratio", n)
	for _, set := range []struct {
		prefix string
		lr     *harness.LoadResult
	}{{"", quiet}, {"all.", lr}} {
		b.res.quantile(set.prefix+"request_p50_ms", set.lr.Latencies(harness.NumOps, failedLatency), 0.50)
		b.res.quantile(set.prefix+"request_p90_ms", set.lr.Latencies(harness.NumOps, failedLatency), 0.90)
		b.res.quantile(set.prefix+"request_p99_ms", set.lr.Latencies(harness.NumOps, failedLatency), 0.99)
		b.res.quantile(set.prefix+"query_p50_ms", set.lr.Latencies(harness.OpQuery, failedLatency), 0.50)
		b.res.quantile(set.prefix+"query_p99_ms", set.lr.Latencies(harness.OpQuery, failedLatency), 0.99)
		b.res.quantile(set.prefix+"expand_p50_ms", set.lr.Latencies(harness.OpExpand, failedLatency), 0.50)
		b.res.quantile(set.prefix+"expand_p99_ms", set.lr.Latencies(harness.OpExpand, failedLatency), 0.99)
		b.res.quantile(set.prefix+"ingest_p50_ms", set.lr.Latencies(harness.OpIngest, failedLatency), 0.50)
		b.res.quantile(set.prefix+"ingest_p90_ms", set.lr.Latencies(harness.OpIngest, failedLatency), 0.90)
	}
	b.res.quantile("driver.lag_p99_ms", lr.Lags(), 0.99)
	for op := harness.Op(0); op < harness.NumOps; op++ {
		b.untracedP50[op] = harness.Quantile(quiet.Latencies(op, failedLatency), 0.5)
	}
}

// serverCounters records the /metrics deltas around a fixed-rate phase.
func (b *bencher) serverCounters(m *obs.MetricsSnapshot, lr *harness.LoadResult, cpu time.Duration) {
	n := float64(len(lr.Samples))
	expands := 0
	for _, s := range lr.Samples {
		if s.Op == harness.OpExpand && s.Err == nil {
			expands++
		}
	}
	hits, misses := m.Total("bionav_navcache_hits_total"), m.Total("bionav_navcache_misses_total")
	b.res.set("navtree.cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	b.res.set("navtree.coalesced", m.Total("bionav_navcache_coalesced_total"), "count", 1)
	sh, sm := m.Total("bionav_solver_cache_hits_total"), m.Total("bionav_solver_cache_misses_total")
	b.res.set("navigate.solver_cache_hit_ratio", ratio(sh, sh+sm), "ratio", int(sh+sm))
	b.res.set("core.dp_fold_steps_per_expand", ratio(m.Total("bionav_dp_fold_steps_total"), float64(expands)), "count", expands)
	b.res.set("server.shed", m.Total("bionav_requests_shed_total"), "count", 1)
	b.res.set("server.sessions_evicted", m.Total("bionav_sessions_evicted_total"), "count", 1)
	b.res.set("server.cpu_ms_per_request", ratio(float64(cpu)/float64(time.Millisecond), n), "ms", int(n))
	appends := m.Total("bionav_journal_appends_total")
	b.res.set("journal.bytes_per_action", ratio(m.Total("bionav_journal_bytes_total"), appends), "bytes", int(appends))
	b.res.set("journal.fsyncs_per_request", ratio(m.Total("bionav_journal_fsyncs_total"), n), "ratio", int(n))
}

// checkDegraded records the degraded EXPANDs of the phase, which count
// as failed requests, and requires the client's count to equal the
// server's bionav_expand_degraded_total delta.
func (b *bencher) checkDegraded(m *obs.MetricsSnapshot, lr *harness.LoadResult) {
	n := 0
	for _, s := range lr.Samples {
		if s.Degraded {
			n++
		}
	}
	b.res.set("server.degraded_expands", float64(n), "count", len(lr.Samples))
	if srv := m.Total("bionav_expand_degraded_total"); srv != float64(n) {
		b.res.fail(fmt.Sprintf("degraded EXPANDs: the driver saw %d, the server counted %g", n, srv))
	}
}

// snapshotChain rebuilds, in process, the dataset the server served at
// each epoch of the run: chain[e] is epoch e. It needs every ingest to
// have been acknowledged.
func snapshotChain(w *workload.Workload, lr *harness.LoadResult) ([]*store.Snapshot, error) {
	chain := []*store.Snapshot{w.Dataset.Snapshot()}
	for e := uint64(1); e <= uint64(len(lr.Epochs)); e++ {
		batch, ok := lr.Epochs[e]
		if !ok {
			return nil, fmt.Errorf("ingest epochs are not contiguous: epoch %d missing", e)
		}
		next, _, err := chain[e-1].Ingest(harness.ToCorpus(batch))
		if err != nil {
			return nil, fmt.Errorf("replay ingest epoch %d: %w", e, err)
		}
		chain = append(chain, next)
	}
	return chain, nil
}

func serverPolicy() core.Policy {
	p, _ := core.PolicyByName("heuristic", 10) // the server's defaults; a known name cannot fail
	return p
}

func navTree(sn *store.Snapshot, keywords string) *navtree.Tree {
	return navtree.Build(sn.Corpus, sn.Index.SearchQuery(navtree.NormalizeQuery(keywords)))
}

// checkNavCost drives the TOPDOWN oracle over HTTP to each Table I
// target and requires its navigation cost to equal the in-process
// navigate.SimulateToTarget for the same dataset and policy, query by
// query. The sum is nav_cost. sn is the snapshot the server serves.
func (b *bencher) checkNavCost(ctx context.Context, srv *server, sn *store.Snapshot) {
	total := 0
	for _, q := range b.w.Queries {
		nav := navTree(sn, q.Spec.Keyword)
		target, ok := nav.NodeByConcept(q.Target)
		if !ok {
			b.res.fail(fmt.Sprintf("nav_cost %q: target not in the navigation tree", q.Spec.Keyword))
			continue
		}
		want, err := navigate.SimulateToTarget(nav, serverPolicy(), target, false)
		if err != nil {
			b.res.fail(fmt.Sprintf("nav_cost %q: simulate: %v", q.Spec.Keyword, err))
			continue
		}
		got, err := oracle(ctx, srv.api, nav, q.Spec.Keyword, target)
		if err != nil {
			b.res.fail(fmt.Sprintf("nav_cost %q: %v", q.Spec.Keyword, err))
			continue
		}
		if got != want.Cost.Navigation() {
			b.res.fail(fmt.Sprintf("nav_cost %q: HTTP oracle %d != SimulateToTarget %d", q.Spec.Keyword, got, want.Cost.Navigation()))
		}
		total += got
	}
	b.res.set("nav_cost", float64(total), "count", len(b.w.Queries))
}

// oracle is the TOPDOWN oracle user over HTTP: it expands the visible
// component hiding the target until the target is visible and returns
// the navigation cost the server reports.
func oracle(ctx context.Context, api harness.Backend, nav *navtree.Tree, keywords string, target navtree.NodeID) (int, error) {
	resp, err := api.Do(ctx, harness.Request{Op: harness.OpQuery, Keywords: keywords})
	if err != nil {
		return 0, err
	}
	st := resp.State
	for step := 0; step < 2*nav.Len()+16; step++ {
		visible := make(map[int]bool)
		for _, n := range harness.Flatten(st.Tree) {
			visible[n.Node] = true
		}
		if visible[target] {
			return st.Cost.Navigation, nil
		}
		root := target
		for !visible[root] {
			root = nav.Parent(root)
		}
		resp, err = api.Do(ctx, harness.Request{Op: harness.OpExpand, Session: st.Session, Node: root})
		if err != nil {
			return 0, err
		}
		st = resp.State
	}
	return 0, errors.New("target not reached")
}

// checkExports replays a seeded sample of recent sessions' /api/export
// logs with navigate.ReplayActions and requires the replay to reproduce
// the visible tree the server last returned to that session.
func (b *bencher) checkExports(ctx context.Context, srv *server, lr *harness.LoadResult, chain []*store.Snapshot) {
	var recent []harness.SessionEnd
	for _, se := range lr.Sessions {
		if !se.Failed {
			recent = append(recent, se)
		}
	}
	if len(recent) > exportWindow {
		recent = recent[len(recent)-exportWindow:]
	}
	src := rng.New(b.o.seed ^ 0xe4907)
	checked := 0
	for _, i := range src.Perm(len(recent)) {
		if checked == exportSample {
			break
		}
		se := recent[i]
		last := se.User.Last()
		actions, err := srv.api.Export(ctx, last.Session)
		if err != nil {
			b.res.fail(fmt.Sprintf("export %s: %v", last.Session, err))
			continue
		}
		checked++
		match := false
		for e := se.EpochLo; e <= se.EpochHi && e < uint64(len(chain)) && !match; e++ {
			ns, err := navigate.ReplayActions(navTree(chain[e], se.User.Keywords()), serverPolicy(), actions)
			match = err == nil && reflect.DeepEqual(harness.VisibleTree(ns, chain[e].Tree), last.Tree)
		}
		if !match {
			b.res.fail(fmt.Sprintf("export %s (%q): replay does not reproduce the last visible tree", last.Session, se.User.Keywords()))
		}
	}
	b.res.set("checks.exports", float64(checked), "count", checked)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fileSize(dir, name string) int64 {
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0
	}
	return fi.Size()
}
