package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bionav/internal/corpus"
	"bionav/internal/index"
	"bionav/internal/rng"
	"bionav/internal/workload"
	"bionav/navbench/harness"
)

// spec is one benchmark workload. Rates are fixed here, not measured, so
// the same offered load is compared across commits. They sit well below
// the rate at which a 2-vCPU host saturates, so the gate compares
// latencies of an unsaturated server.
type spec struct {
	name       string
	kind       harness.Kind
	rate       float64 // offered sessions/s in the fixed-rate phase
	ingestRate float64 // ingest batches/s per offered session/s (0: no writes)
	journal    bool    // server runs with -journal DIR -fsync always
}

var specs = []spec{
	{name: "topdown", kind: harness.Topdown, rate: 10},
	{name: "cold-query", kind: harness.Cold, rate: 20},
	{name: "ingest-journal", kind: harness.Topdown, rate: 8, ingestRate: 1.0 / 32, journal: true},
}

// The simulated user is the repository's committed one: the defaults of
// internal/loadgen and cmd/bionav-loadgen behind BENCH_load.json.
const (
	userActions = 6                      // topdown actions after the query
	userThink   = 200 * time.Millisecond // mean think time between actions
)

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

const (
	zipfSkew = 1.07
	// batchSize is the 20-citation batch whose Snapshot.Ingest cost was
	// sized for the benchmark (≈2.8 ms). The ingest rate above (one
	// batch every 4 s) and upsertShare are provisional: neither the paper
	// nor a measured production mix gives a read/write ratio for this
	// system. At 2 batches/s the nav-cache hit ratio sat between 0.3 and
	// 0.4 and moved with the seed, and with it the query median, which
	// then fell among the rebuilds; with a batch every 4 s most queries
	// hit between epochs.
	batchSize    = 20 // citations per ingest batch
	upsertShare  = 4  // one in upsertShare batch slots re-ingests an earlier ID
	freshIDBase  = 50_000_000
	coldMinDocs  = 67 // Table I's smallest result size
	coldMaxDocs  = 486
	coldTermDF   = 20 // terms rarer than this are not "mid-frequency"
	coldPoolSize = 4096
	coldPoolSeed = 2009
)

// inputs is everything one run feeds the server, derived from the seed.
type inputs struct {
	cfg      harness.UserConfig
	seed     uint64
	arrivals []time.Duration
	ingests  []harness.Ingest
}

// users builds fresh users for the schedule (one per arrival).
func (in *inputs) users() []*harness.User {
	out := make([]*harness.User, len(in.arrivals))
	for i := range out {
		out[i] = harness.NewUser(&in.cfg, in.seed, i)
	}
	return out
}

// makeInputs derives a run's schedule at rate sessions/s over d.
//
// The seed decides which user gets which query, but not how many users
// get each: topdown deals out the Zipf(zipfSkew) expected count of every
// Table I query, and cold-query draws one key from each of as many
// result-size strata of its pool as there are users. Counts that varied
// with the seed moved the latency medians between runs as much as the
// code could.
func makeInputs(sp spec, w *workload.Workload, seed uint64, rate float64, d time.Duration) *inputs {
	src := rng.New(seed ^ 0x5eed)
	in := &inputs{seed: seed, cfg: harness.UserConfig{Kind: sp.kind, Actions: userActions, Think: userThink}}
	in.arrivals = poisson(src.Split(), rate, d)
	n := len(in.arrivals)
	switch sp.kind {
	case harness.Topdown:
		for _, q := range w.Queries {
			in.cfg.Queries = append(in.cfg.Queries, q.Spec.Keyword)
		}
		for q, c := range zipfCounts(n, len(in.cfg.Queries), zipfSkew) {
			for ; c > 0; c-- {
				in.cfg.Assign = append(in.cfg.Assign, q)
			}
		}
	case harness.Cold:
		// The pool depends on the database only; the seed decides which
		// keys the users draw from it.
		in.cfg.Queries = coldQueries(w, rng.New(coldPoolSeed))
		pick := src.Split()
		for i := 0; i < n; i++ {
			lo, hi := i*len(in.cfg.Queries)/n, (i+1)*len(in.cfg.Queries)/n
			in.cfg.Assign = append(in.cfg.Assign, lo+pick.Intn(max(hi-lo, 1)))
		}
	}
	deal := src.Split()
	deal.Shuffle(len(in.cfg.Assign), func(i, j int) {
		in.cfg.Assign[i], in.cfg.Assign[j] = in.cfg.Assign[j], in.cfg.Assign[i]
	})
	if sp.ingestRate > 0 {
		in.ingests = ingestStream(w, src.Split(), rate*sp.ingestRate, d)
	}
	return in
}

// zipfCounts splits n users over k queries in proportion to their
// Zipf(skew) popularity (rank r has weight 1/r^skew), rounding by largest
// remainder so the counts sum to n.
func zipfCounts(n, k int, skew float64) []int {
	weights := make([]float64, k)
	total := 0.0
	for r := range weights {
		weights[r] = 1 / math.Pow(float64(r+1), skew)
		total += weights[r]
	}
	counts := make([]int, k)
	rest := make([]int, k)
	left := n
	for r, wt := range weights {
		counts[r] = int(float64(n) * wt / total)
		left -= counts[r]
		rest[r] = r
	}
	frac := func(r int) float64 { return float64(n)*weights[r]/total - float64(counts[r]) }
	sort.SliceStable(rest, func(i, j int) bool { return frac(rest[i]) > frac(rest[j]) })
	for _, r := range rest[:left] {
		counts[r]++
	}
	return counts
}

// poisson draws the arrival offsets of a Poisson process at rate per
// second over d, conditioned on its expected count: round(rate*d)
// arrivals placed uniformly at random. Fixing the count keeps the amount
// of work, and so the server's memory, from varying with the seed.
func poisson(src *rng.Source, rate float64, d time.Duration) []time.Duration {
	n := int(rate*d.Seconds() + 0.5)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(src.Float64() * float64(d))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// evenly places round(rate*d) writes one period apart, from a seeded
// offset into the first period. Poisson-placed writes left some runs with
// bursts of epochs and others with long quiet spells, and so moved the
// nav-cache hit ratio, and with it the read latencies, between seeds.
func evenly(src *rng.Source, rate float64, d time.Duration) []time.Duration {
	n := int(rate*d.Seconds() + 0.5)
	out := make([]time.Duration, n)
	if n == 0 {
		return out
	}
	period := float64(d) / float64(n)
	phase := src.Float64()
	for i := range out {
		out[i] = time.Duration((float64(i) + phase) * period)
	}
	return out
}

// coldQueries draws a pool of two-term "a OR b" queries over the
// corpus's mid-frequency terms whose result sizes fall in Table I's
// 67–486 range. Its keys are distinct, so the nav cache misses; the pool
// is ordered by result size.
func coldQueries(w *workload.Workload, src *rng.Source) []string {
	ix := w.Dataset.Index
	seen := make(map[string]bool)
	var terms []string
	corp := w.Dataset.Corpus
	for i := 0; i < corp.Len(); i++ {
		for _, t := range corp.At(i).Terms {
			if seen[t] || !isWord(t) {
				continue
			}
			seen[t] = true
			if ix.DocFreq(t) >= coldTermDF && ix.DocFreq(t) <= coldMaxDocs {
				terms = append(terms, t)
			}
		}
	}
	sort.Strings(terms)
	var pool []string
	size := make(map[string]int)
	for tries := 0; len(pool) < coldPoolSize && tries < 50*coldPoolSize; tries++ {
		a, b := terms[src.Intn(len(terms))], terms[src.Intn(len(terms))]
		if a >= b || size[a+" OR "+b] > 0 {
			continue
		}
		n := unionSize(ix, a, b)
		if n >= coldMinDocs && n <= coldMaxDocs {
			q := a + " OR " + b
			pool = append(pool, q)
			size[q] = n
		}
	}
	sort.SliceStable(pool, func(i, j int) bool { return size[pool[i]] < size[pool[j]] })
	return pool
}

func isWord(t string) bool {
	for _, r := range t {
		if r < 'a' || r > 'z' {
			return false
		}
	}
	return t != "" && t != "or" && t != "and" && t != "not"
}

func unionSize(ix *index.Index, a, b string) int {
	pa, pb := ix.Postings(a), ix.Postings(b)
	i, j, n := 0, 0, 0
	for i < len(pa) || j < len(pb) {
		switch {
		case j == len(pb) || (i < len(pa) && pa[i] < pb[j]):
			i++
		case i == len(pa) || pb[j] < pa[i]:
			j++
		default:
			i++
			j++
		}
		n++
	}
	return n
}

// ingestStream builds the open-loop write stream, evenly spaced: batches
// of seeded clones of Table I result citations under fresh IDs, with one slot in
// upsertShare re-ingesting an ID an earlier batch created.
func ingestStream(w *workload.Workload, src *rng.Source, rate float64, d time.Duration) []harness.Ingest {
	var results []corpus.CitationID
	for _, q := range w.Queries {
		results = append(results, q.Results...)
	}
	var fresh []int64 // IDs earlier batches created
	next := int64(freshIDBase)
	var out []harness.Ingest
	for _, at := range evenly(src, rate, d) {
		batch := make([]harness.Citation, 0, batchSize)
		used := make(map[int64]bool)
		var created []int64
		for len(batch) < batchSize {
			id, isNew := next, true
			if len(fresh) > 0 && src.Intn(upsertShare) == 0 {
				id, isNew = fresh[src.Intn(len(fresh))], false
			}
			if used[id] {
				continue
			}
			used[id] = true
			if isNew {
				next++
				created = append(created, id)
			}
			c, _ := w.Dataset.Corpus.Get(results[src.Intn(len(results))]) // planted results are in the corpus
			concepts := make([]int, len(c.Concepts))
			for i, cc := range c.Concepts {
				concepts[i] = int(cc)
			}
			batch = append(batch, harness.Citation{
				ID: id, Title: c.Title, Authors: c.Authors, Year: c.Year,
				Terms: c.Terms, Concepts: concepts,
			})
		}
		fresh = append(fresh, created...)
		out = append(out, harness.Ingest{At: at, Batch: batch})
	}
	return out
}
