package harness

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Start and End are offsets from the
// tracer's creation; Parent is -1 for a request's root span.
type Span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent"`
	Session int           `json:"session"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	// Value carries the span's work count where it has one (index
	// results, tree nodes, component nodes, bytes).
	Value int64 `json:"value,omitempty"`
}

// Tracer keeps spans in memory until the run ends. Safe for concurrent
// use.
type Tracer struct {
	clock Clock
	t0    time.Time

	mu    sync.Mutex
	spans []Span // guarded by mu
}

// NewTracer starts a tracer on clock.
func NewTracer(clock Clock) *Tracer {
	return &Tracer{clock: clock, t0: clock.Now()}
}

// Start opens a span and returns its id.
func (t *Tracer) Start(name string, parent, session int) int {
	now := t.clock.Now().Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Session: session, Name: name, Start: now, End: -1})
	return id
}

// End closes span id, recording value as its work count.
func (t *Tracer) End(id int, value int64) {
	now := t.clock.Now().Sub(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Value = value
	t.mu.Unlock()
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// SelfTimes returns each span's self time: its duration minus the union
// of its children's intervals (clipped to the span), indexed by span id.
func SelfTimes(spans []Span) []time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = ks, ke
			} else if ke > curEnd {
				curEnd = ke
			}
		}
		covered += curEnd - curStart
		out[i] = (s.End - s.Start) - covered
	}
	return out
}
