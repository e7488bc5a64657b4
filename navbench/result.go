package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"bionav/internal/workload"
	"bionav/navbench/harness"
)

// The metric sets BENCHMARK.json lists: -trace 0 prints endToEnd,
// -trace 1 prints perLayer. Every run measures both.
var (
	endToEnd = []string{
		"setup_s", "query_p50_ms", "request_p50_ms", "request_p90_ms",
		"ok_frac", "peak_rss_mb", "nav_cost",
	}
	perLayer = []string{
		"request_p99_ms", "query_p99_ms", "expand_p50_ms", "expand_p99_ms", "ingest_p50_ms", "ingest_p90_ms", "failed_frac",
		"driver.lag_p99_ms", "host.steal_pct",
		"index.search_us", "index.results",
		"navtree.build_ms", "navtree.nodes", "navtree.cache_hit_ratio", "navtree.coalesced",
		"navigate.new_session_ms", "navigate.new_session_bytes",
		"core.choose_cut_ms", "core.choose_cut_p99_ms", "core.component_nodes", "core.dp_fold_steps_per_expand",
		"navigate.expand_ms", "navigate.expand_self_ms", "navigate.visualize_us", "navigate.solver_cache_hit_ratio",
		"rank.rank_ms",
		"server.encode_us", "server.response_bytes", "server.http_overhead_ms", "server.cpu_ms_per_request",
		"server.shed", "server.sessions_evicted",
		"journal.append_us", "journal.bytes_per_action", "journal.fsyncs_per_request",
		"store.open_ms", "store.ingest_ms", "store.log_bytes_per_user_byte",
	}
)

// metric is one measured value. N is its sample count; Quantile, when
// set, is the percentile actually reported (a tail percentile drops to
// the highest one with harness.MinBeyond samples beyond it).
type metric struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Quantile float64 `json:"quantile,omitempty"`
}

// host stamps a result with where and how it was measured.
type host struct {
	Nproc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPU         string `json:"cpu"`
	GoVersion   string `json:"go"`
	Commit      string `json:"commit"`
	ServerFlags string `json:"serverFlags"`
}

// result is one run's record, written in full to the result file.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	DBSeed    uint64            `json:"dbSeed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Rate      float64           `json:"rate"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(o options, sp spec, nproc int) *result {
	return &result{
		Workload: sp.name, Seed: o.seed, DBSeed: workload.DefaultConfig().Seed, Seconds: o.seconds, Trace: o.trace, Rate: sp.rate,
		Host: host{
			Nproc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
			GoVersion: runtime.Version(), Commit: commit(),
		},
		Correct: true,
		Metrics: make(map[string]metric),
	}
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// fail records a failed output check; the run is then not correct.
func (r *result) fail(msg string) {
	r.Correct = false
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, msg)
	}
}

// quantile records the q-quantile of millisecond samples xs.
func (r *result) quantile(name string, xs []float64, q float64) {
	r.quantileScaled(name, xs, q, 1)
}

// quantileScaled records the q-quantile of xs times scale, in ms. A tail
// quantile without harness.MinBeyond samples beyond it is replaced by the
// highest one that has them; the result file says which was used.
func (r *result) quantileScaled(name string, xs []float64, q, scale float64) {
	n := len(xs)
	used := q
	if q > 0.5 && !harness.HasTail(n, q) {
		used = math.Max(0.5, 1-float64(harness.MinBeyond)/float64(n))
	}
	m := metric{Value: harness.Quantile(xs, used) * scale, Unit: "ms", N: n}
	if used != q {
		m.Quantile = used
	}
	r.Metrics[name] = m
}

// write stores the full result file.
func (r *result) write(o options) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, map[bool]int{false: 0, true: 1}[r.Trace])
	return os.WriteFile(filepath.Join(o.out, name), append(raw, '\n'), 0o644)
}

// print writes the human-readable report and, as the last line, the JSON
// object with the selected metric set.
func (r *result) print(w io.Writer) {
	names := endToEnd
	if r.Trace {
		names = perLayer
	}
	fmt.Fprintf(w, "navbench %s seed=%d seconds=%d trace=%v rate=%g sessions/s nproc=%d cpu=%q go=%s commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Rate, r.Host.Nproc, r.Host.CPU, r.Host.GoVersion, r.Host.Commit)
	fmt.Fprintf(w, "server flags: %s\n", r.Host.ServerFlags)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]out, len(names))
	for _, name := range names {
		m := r.Metrics[name]
		note := ""
		if m.Quantile != 0 {
			note = fmt.Sprintf(" (reported at p%g: too few samples for the named percentile)", m.Quantile*100)
		}
		fmt.Fprintf(w, "%-34s %14.4f %-10s n=%d%s\n", name, m.Value, m.Unit, m.N, note)
		metrics[name] = out{Value: m.Value, Unit: m.Unit}
	}
	line, _ := json.Marshal(struct { // plain maps and numbers cannot fail to encode
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	fmt.Fprintln(w, string(line))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}
