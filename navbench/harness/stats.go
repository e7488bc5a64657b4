package harness

import (
	"sort"
	"time"
)

// MinBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p90 at least 100.
const MinBeyond = 10

// Quantile returns the q-quantile (nearest rank) of xs, which it sorts.
// It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// HasTail reports whether n samples leave MinBeyond beyond quantile q.
func HasTail(n int, q float64) bool {
	return float64(n)*(1-q)+1e-9 >= MinBeyond // 1000*(1-0.99) is just below 10 in binary
}

// millis converts durations to float64 milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// Latencies returns the due-time latencies of the samples of op (all ops
// when op is NumOps), in milliseconds. A failed request counts as
// missing every latency limit: it enters with latency failed.
func (r *LoadResult) Latencies(op Op, failed time.Duration) []float64 {
	var out []time.Duration
	for _, s := range r.Samples {
		if op != NumOps && s.Op != op {
			continue
		}
		if s.Failed() {
			out = append(out, failed)
			continue
		}
		out = append(out, s.Latency())
	}
	return millis(out)
}

// Lags returns the driver lag of every sample, in milliseconds.
func (r *LoadResult) Lags() []float64 {
	out := make([]time.Duration, len(r.Samples))
	for i, s := range r.Samples {
		out[i] = s.Lag()
	}
	return millis(out)
}

// Failed counts the samples that failed: errors, timeouts, shed and
// unexpected statuses and degraded EXPANDs alike.
func (r *LoadResult) Failed() int {
	failed := 0
	for _, s := range r.Samples {
		if s.Failed() {
			failed++
		}
	}
	return failed
}

// QuietSeconds marks the seconds of a phase whose share of CPU time
// stolen by the hypervisor is at most the phase's median: at least half
// of them. steal[k] is the share in second k.
func QuietSeconds(steal []float64) []bool {
	sorted := append([]float64(nil), steal...)
	median := Quantile(sorted, 0.5)
	quiet := make([]bool, len(steal))
	for k, s := range steal {
		quiet[k] = s <= median
	}
	return quiet
}

// InSeconds returns the result restricted to the samples due in a second
// marked in keep, plus every failed sample wherever it fell, so a
// failure still misses every latency limit.
func (r *LoadResult) InSeconds(keep []bool) *LoadResult {
	out := &LoadResult{Sessions: r.Sessions, Epochs: r.Epochs}
	for _, s := range r.Samples {
		k := int(s.Due / time.Second)
		if s.Failed() || (k >= 0 && k < len(keep) && keep[k]) {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}
