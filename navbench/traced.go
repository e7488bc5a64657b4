package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"bionav/internal/journal"
	"bionav/internal/store"
	"bionav/navbench/harness"
)

// traced replays the fixed-rate phase's seeded sessions serially through
// the in-process back-end, recording a span around every layer call, and
// derives the per-layer metrics from the spans. The span file and a
// self-time table are written next to the result file.
func (b *bencher) traced(ctx context.Context, in *inputs) error {
	db := filepath.Join(b.dir, "traced")
	if err := copyDir(b.db, db); err != nil {
		return err
	}
	clock := wallClock{}
	tr := harness.NewTracer(clock)
	id := tr.Start("store.open", -1, -1)
	live, err := store.OpenLive(db)
	tr.End(id, 0)
	if err != nil {
		return err
	}
	defer live.Close()
	var jnl *journal.Journal
	if b.sp.journal {
		jnl, err = journal.Open(db+"-journal", journal.Options{Fsync: journal.FsyncAlways})
		if err != nil {
			return err
		}
		defer jnl.Close()
	}
	backend := harness.NewInProc(tr, clock, live, jnl)
	if failed := harness.Replay(ctx, backend, in.users(), in.arrivals, in.ingests); failed > 0 {
		b.res.fail(fmt.Sprintf("traced run: %d requests failed", failed))
	}
	spans := tr.Spans()
	self := harness.SelfTimes(spans)
	b.layerMetrics(spans, self)

	base := filepath.Join(b.o.out, fmt.Sprintf("%s-seed%d", b.sp.name, b.o.seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	werr := tr.WriteJSONL(bw)
	if err := bw.Flush(); werr == nil {
		werr = err
	}
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		return werr
	}
	table := selfTimeTable("all sessions", spans, self, func(harness.Span) bool { return true })
	if u, ok := b.showcase(spans, in); ok {
		table += "\n" + selfTimeTable(fmt.Sprintf("session %d (%s)", u, b.showcaseLabel()), spans, self,
			func(s harness.Span) bool { return s.Session == u })
	}
	return os.WriteFile(base+".selftime.txt", []byte(table), 0o644)
}

// showcase picks the session the self-time table singles out: the first
// prothymosin session with an EXPAND on topdown workloads, the first
// cold query on cold-query.
func (b *bencher) showcase(spans []harness.Span, in *inputs) (int, bool) {
	if b.sp.kind == harness.Cold {
		return 0, len(spans) > 0
	}
	expanded := make(map[int]bool)
	for _, s := range spans {
		if s.Name == "request.expand" {
			expanded[s.Session] = true
		}
	}
	for i, u := range in.users() {
		if u.Keywords() == "prothymosin" && expanded[i] {
			return i, true
		}
	}
	return 0, false
}

func (b *bencher) showcaseLabel() string {
	if b.sp.kind == harness.Cold {
		return "one cold query"
	}
	return "one prothymosin EXPAND session"
}

// selfTimeTable renders per-span-name counts, total and median self time
// over the spans keep selects.
func selfTimeTable(title string, spans []harness.Span, self []time.Duration, keep func(harness.Span) bool) string {
	type row struct {
		n     int
		total time.Duration
		ds    []float64
	}
	rows := make(map[string]*row)
	for i, s := range spans {
		if !keep(s) {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
		}
		r.n++
		r.total += self[i]
		r.ds = append(r.ds, float64(self[i])/float64(time.Microsecond))
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "self time by span, %s\n%-24s %8s %14s %14s\n", title, "span", "count", "total_ms", "median_us")
	for _, name := range names {
		r := rows[name]
		fmt.Fprintf(&sb, "%-24s %8d %14.3f %14.1f\n", name, r.n, float64(r.total)/float64(time.Millisecond), harness.Quantile(r.ds, 0.5))
	}
	return sb.String()
}

// layerMetrics derives the per-layer metrics from the traced run's spans.
func (b *bencher) layerMetrics(spans []harness.Span, self []time.Duration) {
	dur := make(map[string][]float64)    // µs
	selfUs := make(map[string][]float64) // µs
	value := make(map[string][]float64)
	for i, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/float64(time.Microsecond))
		selfUs[s.Name] = append(selfUs[s.Name], float64(self[i])/float64(time.Microsecond))
		value[s.Name] = append(value[s.Name], float64(s.Value))
	}
	med := func(xs []float64, scale float64) float64 { return harness.Quantile(xs, 0.5) * scale }
	const ms = 1e-3
	b.res.set("index.search_us", med(dur["index.search"], 1), "us", len(dur["index.search"]))
	b.res.set("index.results", med(value["index.search"], 1), "count", len(value["index.search"]))
	b.res.set("navtree.build_ms", med(dur["navtree.build"], ms), "ms", len(dur["navtree.build"]))
	b.res.set("navtree.nodes", med(value["navtree.build"], 1), "count", len(value["navtree.build"]))
	b.res.set("navigate.new_session_ms", med(dur["navigate.new_session"], ms), "ms", len(dur["navigate.new_session"]))
	b.res.set("navigate.new_session_bytes", med(value["navigate.new_session"], 1), "bytes", len(value["navigate.new_session"]))
	b.res.set("core.choose_cut_ms", med(dur["core.choose_cut"], ms), "ms", len(dur["core.choose_cut"]))
	b.res.quantileScaled("core.choose_cut_p99_ms", dur["core.choose_cut"], 0.99, ms)
	b.res.set("core.component_nodes", med(value["core.choose_cut"], 1), "count", len(value["core.choose_cut"]))
	b.res.set("navigate.expand_ms", med(dur["navigate.expand"], ms), "ms", len(dur["navigate.expand"]))
	b.res.set("navigate.expand_self_ms", med(selfUs["navigate.expand"], ms), "ms", len(selfUs["navigate.expand"]))
	b.res.set("navigate.visualize_us", med(dur["navigate.visualize"], 1), "us", len(dur["navigate.visualize"]))
	b.res.set("rank.rank_ms", med(dur["rank.rank"], ms), "ms", len(dur["rank.rank"]))
	b.res.set("server.encode_us", med(dur["server.encode"], 1), "us", len(dur["server.encode"]))
	b.res.set("server.response_bytes", med(value["server.encode"], 1), "bytes", len(value["server.encode"]))
	b.res.set("journal.append_us", med(dur["journal.append"], 1), "us", len(dur["journal.append"]))
	b.res.set("store.open_ms", med(dur["store.open"], ms), "ms", len(dur["store.open"]))
	b.res.set("store.ingest_ms", med(dur["store.ingest"], ms), "ms", len(dur["store.ingest"]))

	// HTTP overhead: per op, the untraced median latency minus the traced
	// request's median duration, weighted by the op's request count.
	var sum, n float64
	for op := harness.Op(0); op < harness.NumOps; op++ {
		roots := dur["request."+op.String()]
		if len(roots) == 0 || b.untracedP50[op] == 0 {
			continue
		}
		sum += float64(len(roots)) * (b.untracedP50[op] - med(roots, ms))
		n += float64(len(roots))
	}
	b.res.set("server.http_overhead_ms", ratio(sum, n), "ms", int(n))
}
