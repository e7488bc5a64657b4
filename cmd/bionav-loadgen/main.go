// Command bionav-loadgen is the load harness: it drives a bionav server
// over HTTP with Poisson-arriving simulated TOPDOWN users, doubles the
// offered load step by step until a step misses the SLO, and reports the
// capacity curve — exact client-side latency quantiles measured from each
// request's due time, full outcome accounting, the matching server-side
// counter deltas, and the knee (BENCH_load.json, schema bionav-load/v1 —
// see docs/LOADGEN.md).
//
// The user model, the HTTP client, the open-loop driver and the knee rule
// are those of navbench/harness, the library the repository's benchmark
// is built on, so the capacity curve and the benchmark exercise the same
// simulated user.
//
// With no -addr it self-hosts: the Table I workload corpus is synthesized
// in process, a real bionav server is started on a loopback port, and the
// sweep runs against it over HTTP — the full stack, minus the network.
//
//	bionav-loadgen -steps 3 -rate 2 -step-duration 2s -out BENCH_load.json
//	bionav-loadgen -addr http://db-host:8080 -rate 10
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"bionav/internal/obs"
	"bionav/internal/rng"
	"bionav/internal/server"
	"bionav/internal/workload"
	"bionav/navbench/harness"
)

// wallClock is the driver's real clock; the harness library never reads
// the wall clock itself.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) After(t time.Time) <-chan struct{} {
	ch := make(chan struct{})
	time.AfterFunc(time.Until(t), func() { close(ch) })
	return ch
}

// retryAfterRequired holds the server to its overload contract: a 503
// sheds load only when it carries Retry-After. A bare 503 is turned into
// a transport error, so it counts as an error, never as shed.
type retryAfterRequired struct{ next http.RoundTripper }

func (t retryAfterRequired) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: 503 without Retry-After", req.Method, req.URL.Path)
	}
	return resp, err
}

// sweepConfig is a sweep's parameters, as given by the flags.
type sweepConfig struct {
	seed         uint64
	queries      []string // popularity-ranked (index 0 most popular)
	zipfSkew     float64
	actions      int
	think        time.Duration
	stepDuration time.Duration // launch window per step
	sessionGrace time.Duration // extra time in-flight sessions get past the window
	rate         float64       // offered sessions/second of the first step
	steps        int           // most steps tried; the offered rate doubles each step
	sloP99       time.Duration
	maxShedRate  float64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bionav-loadgen: ")
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bionav-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg sweepConfig
	addr := fs.String("addr", "", "target server base URL; empty self-hosts a workload server")
	scale := fs.String("scale", "small", "self-hosted workload scale: small or full")
	policy := fs.String("policy", "heuristic", "expansion policy of the self-hosted server")
	fs.Uint64Var(&cfg.seed, "seed", 2009, "master seed; every step's arrivals, queries and users derive from it")
	fs.Float64Var(&cfg.rate, "rate", 2, "offered sessions/second of the first step; each further step doubles it")
	fs.IntVar(&cfg.steps, "steps", 3, "most offered-load steps in the sweep; it stops at the first failing step")
	fs.DurationVar(&cfg.stepDuration, "step-duration", 2*time.Second, "launch window per step")
	fs.DurationVar(&cfg.sessionGrace, "session-grace", 15*time.Second, "extra time in-flight sessions get past the window")
	fs.DurationVar(&cfg.think, "think", 200*time.Millisecond, "mean think time between user actions")
	fs.IntVar(&cfg.actions, "actions", 6, "post-query actions per session")
	fs.Float64Var(&cfg.zipfSkew, "zipf", 1.07, "query-popularity Zipf skew")
	fs.DurationVar(&cfg.sloP99, "slo-p99", 500*time.Millisecond, "client p99 a sustainable step must stay under")
	fs.Float64Var(&cfg.maxShedRate, "max-shed-rate", 0.01, "shed (and error+timeout) fraction a sustainable step may reach")
	queryPool := fs.String("queries", "", "comma-separated query pool, popularity-ranked (default: Table I keywords, or the self-hosted workload's)")
	out := fs.String("out", "-", "BENCH_load.json path, or - for stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.rate <= 0 {
		return fmt.Errorf("non-positive -rate %v", cfg.rate)
	}
	if cfg.steps < 1 {
		return fmt.Errorf("-steps %d: want at least 1", cfg.steps)
	}
	// An external target's corpus may not contain the Table I terms (every
	// query would 404 and count as an error, hiding the curve) — -queries
	// overrides the pool with terms the target actually matches.
	if *queryPool != "" {
		for _, q := range strings.Split(*queryPool, ",") {
			if q = strings.TrimSpace(q); q != "" {
				cfg.queries = append(cfg.queries, q)
			}
		}
		if len(cfg.queries) == 0 {
			return fmt.Errorf("no queries in -queries %q", *queryPool)
		}
	}

	base := *addr
	if base == "" {
		hosted, queries, stop, err := selfHost(stderr, *scale, *policy)
		if err != nil {
			return err
		}
		defer stop()
		base = hosted
		if cfg.queries == nil {
			cfg.queries = queries
		}
	} else if cfg.queries == nil {
		cfg.queries = tableIKeywords()
	}

	api := &harness.HTTP{Base: base, Client: &http.Client{Transport: retryAfterRequired{http.DefaultTransport}}}
	fmt.Fprintf(stderr, "sweeping up to %d steps from %.3g sessions/s against %s\n", cfg.steps, cfg.rate, base)
	steps, knee, err := sweep(ctx, api, &cfg, stderr)
	if err != nil {
		return err
	}
	switch {
	case !knee.Found:
		fmt.Fprintln(stderr, "knee: not found — the first step missed the SLO")
	case knee.LowerBound:
		fmt.Fprintf(stderr, "knee: at least %.3g sessions/s (step %d, p99 %.3gms) — no step failed\n", knee.Rate, knee.Step, knee.P99Ms)
	default:
		fmt.Fprintf(stderr, "knee: %.3g sessions/s (step %d, p99 %.3gms, shed %.2g%%)\n", knee.Rate, knee.Step, knee.P99Ms, 100*knee.ShedRate)
	}

	if *out == "-" {
		return writeReport(stdout, &cfg, steps, knee)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := writeReport(f, &cfg, steps, knee); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweep runs the capacity search: harness.FindKnee doubles the offered
// rate from cfg.rate for at most cfg.steps steps and stops at the first
// step that fails the pass rule.
func sweep(ctx context.Context, api *harness.HTTP, cfg *sweepConfig, progress io.Writer) ([]*stepRecord, kneeRecord, error) {
	var steps []*stepRecord
	var err error
	ceiling := cfg.rate * math.Pow(2, float64(cfg.steps-1))
	knee := harness.FindKnee(func(rate float64) bool {
		s, serr := runStep(ctx, api, cfg, len(steps), rate)
		if serr != nil {
			err = serr
			return false
		}
		steps = append(steps, s)
		n := s.Requests
		fmt.Fprintf(progress, "step %d: offered %.3g/s, %d sessions, %d requests (ok %d, shed %d, err %d), client p99 %.3gms\n",
			s.Step, s.OfferedRate, s.Sessions, n.Total, n.OK, n.Shed, n.Error, s.Client.P99Ms)
		return s.passes(cfg.sloP99, cfg.maxShedRate)
	}, cfg.rate, ceiling, 0)
	return steps, newKneeRecord(steps, knee), err
}

// stepSeed derives step's seed from the master seed: the step's schedule
// stream and its users are seeded from it alone.
func stepSeed(seed uint64, step int) uint64 {
	return seed ^ uint64(step+1)*0xd1b54a32d192ed03
}

// stepInputs draws one step's schedule from the stream of its step seed:
// Poisson arrivals at rate sessions/second over the launch window, and
// for each arrival the index of its query in the popularity-ranked pool,
// Zipf(skew)-distributed.
func stepInputs(seed uint64, rate float64, window time.Duration, pool int, skew float64) ([]time.Duration, []int) {
	src := rng.New(seed)
	zipf := rng.NewZipf(pool, skew)
	var arrivals []time.Duration
	var assign []int
	for at := src.ExpFloat64() / rate; at < window.Seconds(); at += src.ExpFloat64() / rate {
		arrivals = append(arrivals, time.Duration(at*float64(time.Second)))
		assign = append(assign, zipf.Next(src))
	}
	return arrivals, assign
}

// runStep offers rate sessions/second for the launch window, scraping
// /metrics around it. Sessions arrive on the open-loop schedule whatever
// the server does; each runs its closed-loop TOPDOWN script, with at most
// one request in flight, until the window plus the session grace is over.
func runStep(ctx context.Context, api *harness.HTTP, cfg *sweepConfig, step int, rate float64) (*stepRecord, error) {
	before, err := scrape(ctx, api)
	if err != nil {
		return nil, fmt.Errorf("step %d: %w", step, err)
	}
	seed := stepSeed(cfg.seed, step)
	arrivals, assign := stepInputs(seed, rate, cfg.stepDuration, len(cfg.queries), cfg.zipfSkew)
	ucfg := &harness.UserConfig{
		Kind: harness.Topdown, Queries: cfg.queries, Assign: assign,
		Actions: cfg.actions, Think: cfg.think,
	}
	users := make([]*harness.User, len(arrivals))
	for i := range users {
		users[i] = harness.NewUser(ucfg, seed, i)
	}
	start := time.Now()
	res := harness.Run(ctx, harness.LoadConfig{
		Clock: wallClock{}, Backend: api, Start: start,
		Conns: len(users), // one per session: the client adds no connection cap
		Users: users, Arrivals: arrivals,
		End: cfg.stepDuration + cfg.sessionGrace,
	})
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("step %d: %w", step, err)
	}
	after, err := scrape(ctx, api)
	if err != nil {
		return nil, fmt.Errorf("step %d: %w", step, err)
	}
	s := &stepRecord{Record: "step", Step: step, OfferedRate: rate, ElapsedMs: ms(elapsed), Server: serverDeltas(after.Delta(before))}
	lat := make([]float64, len(res.Samples)) // due-time latencies, ms
	for i, smp := range res.Samples {
		s.Requests.tally(smp)
		lat[i] = ms(smp.Latency())
		s.Client.MeanMs += lat[i] / float64(len(lat))
		if smp.Op == harness.OpQuery {
			s.Sessions++
		}
		if smp.Err != nil {
			s.Aborted++ // a session ends at its first failed request
		}
	}
	// Exact nearest-rank quantiles over every request of the step.
	s.Client.P50Ms, s.Client.P95Ms = harness.Quantile(lat, 0.50), harness.Quantile(lat, 0.95)
	s.Client.P99Ms, s.Client.P999Ms = harness.Quantile(lat, 0.99), harness.Quantile(lat, 0.999)
	s.Client.MaxMs = harness.Quantile(lat, 1)
	if elapsed > 0 {
		s.Client.AchievedRps = float64(s.Requests.Total) / elapsed.Seconds()
	}
	return s, nil
}

// scrape fetches and parses the server's /metrics exposition.
func scrape(ctx context.Context, api *harness.HTTP) (*obs.MetricsSnapshot, error) {
	raw, err := api.Get(ctx, "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	snap, err := obs.ParseExposition(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return snap, nil
}

// counts is the outcome accounting of a step: every request lands in
// exactly one bucket.
type counts struct {
	Total    uint64 `json:"total"`
	OK       uint64 `json:"ok"`
	Degraded uint64 `json:"degraded"`
	Shed     uint64 `json:"shed"`
	Timeout  uint64 `json:"timeout"`
	Error    uint64 `json:"error"`
}

// tally classifies s into its bucket.
func (c *counts) tally(s harness.Sample) {
	c.Total++
	var se *harness.StatusError
	var ne net.Error
	switch {
	case s.Err == nil && s.Degraded: // 200 with "degraded": true
		c.Degraded++
	case s.Err == nil:
		c.OK++
	case errors.As(s.Err, &se) && se.Code == http.StatusServiceUnavailable:
		c.Shed++ // retryAfterRequired let it through, so it carried Retry-After
	case errors.Is(s.Err, context.DeadlineExceeded), errors.Is(s.Err, context.Canceled),
		errors.As(s.Err, &ne) && ne.Timeout():
		c.Timeout++ // a deadline, a network timeout, or the cut at the session grace
	default:
		c.Error++ // a bare 503 included
	}
}

func (c counts) fraction(n uint64) float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(n) / float64(c.Total)
}

// passes is the step pass rule: the step carried requests, its client
// p99 met the SLO, and both its shed fraction and its hard-failure
// (error + timeout) fraction stayed within maxShed. A step whose
// requests failed outright has not shown capacity, even when its fast
// failures kept the p99 flattering.
func (s *stepRecord) passes(slo time.Duration, maxShed float64) bool {
	n := s.Requests
	return n.Total > 0 && s.Client.P99Ms <= ms(slo) &&
		n.fraction(n.Shed) <= maxShed && n.fraction(n.Error+n.Timeout) <= maxShed
}

// serverDeltas extracts the step's server-side accounting from a scrape
// delta: the counter increments between the scrapes bracketing it.
func serverDeltas(d *obs.MetricsSnapshot) serverRecord {
	out := serverRecord{
		Shed:     d.Total("bionav_requests_shed_total"),
		Degraded: d.Total("bionav_expand_degraded_total"),
		Timeouts: d.Total("bionav_expand_timeouts_total"),
	}
	for _, s := range d.Series("bionav_http_requests_total") {
		if strings.HasPrefix(s.Labels["route"], "/api/") {
			out.APIRequests += s.Value
		}
	}
	// Interval p99 over the /api/ routes only — the probe and scrape
	// traffic the harness itself generates must not dilute the estimate.
	byLe := make(map[float64]float64)
	for _, s := range d.Series("bionav_http_request_seconds_bucket") {
		if !strings.HasPrefix(s.Labels["route"], "/api/") {
			continue
		}
		if le, err := strconv.ParseFloat(s.Labels["le"], 64); err == nil {
			byLe[le] += s.Value
		}
	}
	buckets := make([]obs.Bucket, 0, len(byLe))
	for le, count := range byLe {
		buckets = append(buckets, obs.Bucket{Upper: le, Count: count})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].Upper < buckets[j].Upper })
	if p99 := obs.BucketQuantile(0.99, buckets); !math.IsNaN(p99) && !math.IsInf(p99, 0) {
		out.P99Ms = p99 * 1000
	}
	return out
}

// BENCH_load.json schema (validated by bionav-benchcheck): JSON Lines,
// one object per line. The first line is a header carrying the schema
// marker and the run parameters; each sweep step is a "step" record; the
// final line is the "knee" record. All durations are milliseconds.
const schemaLoadV1 = "bionav-load/v1"

type headerRecord struct {
	Schema         string  `json:"schema"`
	Seed           uint64  `json:"seed"`
	QueryPool      int     `json:"queryPool"`
	ZipfSkew       float64 `json:"zipfSkew"`
	Actions        int     `json:"actions"`
	ThinkMs        float64 `json:"thinkMs"`
	StepDurationMs float64 `json:"stepDurationMs"`
	Steps          int     `json:"steps"`
	SLOp99Ms       float64 `json:"sloP99Ms"`
	MaxShedRate    float64 `json:"maxShedRate"`
}

// stepRecord is one offered-load step: the client-side measurements
// paired with the matching server-side counter deltas.
type stepRecord struct {
	Record      string  `json:"record"` // "step"
	Step        int     `json:"step"`
	OfferedRate float64 `json:"offeredRate"` // sessions/second
	Sessions    int     `json:"sessions"`    // sessions launched
	Aborted     int     `json:"aborted"`     // sessions cut short by shed, timeout or error
	ElapsedMs   float64 `json:"elapsedMs"`   // from the step's start to its last session's end
	Requests    counts  `json:"requests"`
	// Client latencies are timed from each request's due time.
	Client struct {
		P50Ms       float64 `json:"p50Ms"`
		P95Ms       float64 `json:"p95Ms"`
		P99Ms       float64 `json:"p99Ms"`
		P999Ms      float64 `json:"p999Ms"`
		MaxMs       float64 `json:"maxMs"`
		MeanMs      float64 `json:"meanMs"`
		AchievedRps float64 `json:"achievedRps"`
	} `json:"client"`
	Server serverRecord `json:"server"`
}

type serverRecord struct {
	APIRequests float64 `json:"apiRequests"` // bionav_http_requests_total over /api/ routes
	Shed        float64 `json:"shed"`        // bionav_requests_shed_total
	Degraded    float64 `json:"degraded"`    // bionav_expand_degraded_total
	Timeouts    float64 `json:"timeouts"`    // bionav_expand_timeouts_total
	P99Ms       float64 `json:"p99Ms"`       // bionav_http_request_seconds interval p99 (0 when no samples)
}

// kneeRecord is the knee: the last step that passed before the first
// failing one. LowerBound is set when no step failed, so the true knee
// lies at or above Rate; Found is false when the first step failed.
type kneeRecord struct {
	Record     string  `json:"record"` // "knee"
	Found      bool    `json:"found"`
	LowerBound bool    `json:"lowerBound"`
	Step       int     `json:"step"`
	Rate       float64 `json:"rate"`
	P99Ms      float64 `json:"p99Ms"`
	ShedRate   float64 `json:"shedRate"`
}

// newKneeRecord finds the step the knee was found at.
func newKneeRecord(steps []*stepRecord, knee harness.Knee) kneeRecord {
	rec := kneeRecord{Record: "knee", LowerBound: knee.LowerBound}
	for _, s := range steps {
		if knee.Rate > 0 && s.OfferedRate == knee.Rate {
			rec.Found, rec.Step, rec.Rate = true, s.Step, s.OfferedRate
			rec.P99Ms, rec.ShedRate = s.Client.P99Ms, s.Requests.fraction(s.Requests.Shed)
		}
	}
	return rec
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeReport renders a sweep as BENCH_load.json lines.
func writeReport(w io.Writer, cfg *sweepConfig, steps []*stepRecord, knee kneeRecord) error {
	enc := json.NewEncoder(w)
	head := headerRecord{
		Schema:         schemaLoadV1,
		Seed:           cfg.seed,
		QueryPool:      len(cfg.queries),
		ZipfSkew:       cfg.zipfSkew,
		Actions:        cfg.actions,
		ThinkMs:        ms(cfg.think),
		StepDurationMs: ms(cfg.stepDuration),
		Steps:          len(steps),
		SLOp99Ms:       ms(cfg.sloP99),
		MaxShedRate:    cfg.maxShedRate,
	}
	if err := enc.Encode(head); err != nil {
		return fmt.Errorf("write report header: %w", err)
	}
	for _, s := range steps {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write step %d: %w", s.Step, err)
		}
	}
	if err := enc.Encode(knee); err != nil {
		return fmt.Errorf("write knee: %w", err)
	}
	return nil
}

// selfHost synthesizes the workload corpus, boots a real server over it
// on a loopback port, and returns the base URL, the popularity-ranked
// query pool, and a shutdown func.
func selfHost(stderr io.Writer, scale, policy string) (string, []string, func(), error) {
	var cfg workload.Config
	switch scale {
	case "small":
		cfg = workload.SmallConfig()
	case "full":
		cfg = workload.DefaultConfig()
	default:
		return "", nil, nil, fmt.Errorf("unknown -scale %q (want small or full)", scale)
	}
	t0 := time.Now()
	w, err := workload.Generate(cfg)
	if err != nil {
		return "", nil, nil, err
	}
	fmt.Fprintf(stderr, "synthesized %q workload in %v: %d concepts, %d citations\n",
		scale, time.Since(t0).Round(time.Millisecond), w.Dataset.Tree.Len(), w.Dataset.Corpus.Len())

	srv := server.New(w.Dataset, server.Config{
		Policy: policy,
		// The harness opens far more sessions than an interactive deploy;
		// LRU eviction mid-run would surface as spurious session-not-found
		// errors, so give the table headroom instead.
		MaxSessions: 1 << 20,
	})
	srv.Warmup()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	stop := func() {
		_ = hs.Close()
		srv.Close()
	}
	queries := make([]string, 0, len(w.Queries))
	for i := range w.Queries {
		queries = append(queries, w.Queries[i].Spec.Keyword)
	}
	return "http://" + ln.Addr().String(), queries, stop, nil
}

// tableIKeywords is the external-target query pool: the paper's Table I
// queries, popularity-ranked in published order.
func tableIKeywords() []string {
	specs := workload.TableI()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Keyword
	}
	return out
}
