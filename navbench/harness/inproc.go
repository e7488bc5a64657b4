package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"bionav/internal/core"
	"bionav/internal/corpus"
	"bionav/internal/hierarchy"
	"bionav/internal/journal"
	"bionav/internal/navigate"
	"bionav/internal/navtree"
	"bionav/internal/rank"
	"bionav/internal/store"
)

// InProc is the traced back-end: it serves requests by calling the
// layers' public functions in the order bionav-server's handlers do, and
// records a span around every call. It mirrors the server's defaults
// (heuristic policy, k=10, 128-entry nav cache, 2 s EXPAND budget, one
// tree-build worker per CPU). Not safe for concurrent use: the traced run
// replays sessions one request at a time.
type InProc struct {
	tr      *Tracer
	clock   Clock
	live    *store.Live
	cache   *navtree.Cache
	jnl     *journal.Journal // nil: no journal, as in a server without -journal
	scorers map[uint64]*rank.Scorer
	sess    map[string]*inSession
	order   []string // session ids, oldest first
	nextID  uint64

	// parent and user name the span a ChooseCut span nests under.
	parent, user int
}

type inSession struct {
	nav       *navigate.Session
	snap      *store.Snapshot
	keywords  string
	journaled int
}

// NewInProc builds the traced back-end over live. jnl may be nil.
func NewInProc(tr *Tracer, clock Clock, live *store.Live, jnl *journal.Journal) *InProc {
	b := &InProc{
		tr: tr, clock: clock, live: live, jnl: jnl,
		cache:   navtree.NewCache(128),
		scorers: make(map[uint64]*rank.Scorer),
		sess:    make(map[string]*inSession),
	}
	sn := live.Current()
	b.scorers[sn.Epoch] = rank.NewScorer(sn.Corpus, sn.Index)
	return b
}

// maxSessions is bionav-server's default -max-sessions.
const maxSessions = 256

// tracedPolicy records every ChooseCut as a child span of the EXPAND
// that called it; its work count is the component's size.
type tracedPolicy struct {
	core.Policy
	b *InProc
}

func (p tracedPolicy) ChooseCut(ctx context.Context, at *core.ActiveTree, root navtree.NodeID) ([]core.Edge, error) {
	id := p.b.tr.Start("core.choose_cut", p.b.parent, p.b.user)
	cut, err := p.Policy.ChooseCut(ctx, at, root)
	p.b.tr.End(id, int64(at.ComponentSize(root)))
	return cut, err
}

func (b *InProc) policy() core.Policy {
	p, _ := core.PolicyByName("heuristic", 10) // a known name cannot fail
	return tracedPolicy{Policy: p, b: b}
}

// span runs fn inside a span named name under parent and returns fn's
// work count.
func (b *InProc) span(name string, parent, user int, fn func() int64) {
	id := b.tr.Start(name, parent, user)
	b.tr.End(id, fn())
}

// Do implements Backend.
func (b *InProc) Do(ctx context.Context, req Request) (Response, error) {
	root := b.tr.Start("request."+req.Op.String(), -1, req.User)
	resp, view, err := b.do(ctx, req, root)
	if err == nil && view != nil {
		b.span("server.encode", root, req.User, func() int64 {
			buf, merr := json.Marshal(view)
			if merr != nil {
				err = merr
			}
			return int64(len(buf))
		})
	}
	b.tr.End(root, 0)
	if err != nil {
		return Response{}, err
	}
	if sv, ok := view.(stateView); ok {
		resp.State = sv.state()
	}
	return resp, nil
}

func (b *InProc) do(ctx context.Context, req Request, root int) (Response, any, error) {
	u := req.User
	if req.Op == OpQuery {
		return b.query(ctx, req, root)
	}
	if req.Op == OpIngest {
		return b.ingest(req, root)
	}
	s, ok := b.sess[req.Session]
	if !ok {
		return Response{}, nil, &StatusError{Code: 404, Body: "unknown session " + req.Session}
	}
	var resp Response
	var err error
	switch req.Op {
	case OpExpand:
		b.parent, b.user = b.tr.Start("navigate.expand", root, u), u
		ectx, cancel := context.WithTimeout(ctx, 2*time.Second)
		_, err = s.nav.ExpandContext(ectx, req.Node)
		cancel()
		b.tr.End(b.parent, 0)
	case OpBacktrack:
		b.span("navigate.backtrack", root, u, func() int64 { err = s.nav.Backtrack(); return 0 })
	case OpIgnore:
		b.span("navigate.ignore", root, u, func() int64 { err = s.nav.Ignore(req.Node); return 0 })
	case OpResults:
		var ids []corpus.CitationID
		b.span("navigate.show_results", root, u, func() int64 {
			ids, err = s.nav.ShowResults(req.Node)
			return int64(len(ids))
		})
		if err != nil {
			break
		}
		b.journalActions(req.Session, s, root, u)
		var ranked []rank.Scored
		b.span("rank.rank", root, u, func() int64 {
			ranked = b.scorers[s.snap.Epoch].Rank(s.keywords, ids)
			return int64(len(ranked))
		})
		out := make([]citationView, 0, len(ranked))
		for _, r := range ranked {
			if c, ok := s.snap.Corpus.Get(r.ID); ok {
				out = append(out, citationView{ID: int64(c.ID), Title: c.Title, Authors: c.Authors, Year: c.Year})
			}
		}
		resp.Listed = len(out)
		return resp, out, nil
	}
	if err != nil {
		return Response{}, nil, &StatusError{Code: 422, Body: err.Error()}
	}
	b.journalActions(req.Session, s, root, u)
	return resp, b.render(req.Session, s, root, u), nil
}

func (b *InProc) query(ctx context.Context, req Request, root int) (Response, any, error) {
	u := req.User
	sn := b.live.Current()
	key := navtree.Key{Epoch: sn.Epoch, Query: navtree.NormalizeQuery(req.Keywords)}
	var nav *navtree.Tree
	var err error
	parent := b.tr.Start("navtree.cache", root, u)
	nav, err = b.cache.GetOrBuild(ctx, key, func() (*navtree.Tree, error) {
		var results []corpus.CitationID
		b.span("index.search", parent, u, func() int64 {
			results = sn.Index.SearchQuery(key.Query)
			return int64(len(results))
		})
		if len(results) == 0 {
			return nil, fmt.Errorf("no citations match %q", req.Keywords)
		}
		var t *navtree.Tree
		b.span("navtree.build", parent, u, func() int64 {
			t = navtree.BuildParallel(sn.Corpus, results, runtime.GOMAXPROCS(0))
			return int64(t.Len())
		})
		return t, nil
	})
	b.tr.End(parent, 0)
	if err != nil {
		return Response{}, nil, &StatusError{Code: 404, Body: err.Error()}
	}
	var ns *navigate.Session
	b.span("navigate.new_session", root, u, func() int64 {
		before := allocBytes()
		ns = navigate.NewSession(nav, b.policy())
		return int64(allocBytes() - before)
	})
	b.nextID++
	id := fmt.Sprintf("s%08x", b.nextID)
	s := &inSession{nav: ns, snap: sn, keywords: req.Keywords}
	b.sess[id] = s
	// Like the server's default -max-sessions, keep the 256 most recent
	// sessions; a serial replay never returns to an older one.
	b.order = append(b.order, id)
	if len(b.order) > maxSessions {
		delete(b.sess, b.order[0])
		b.order = b.order[1:]
	}
	if b.jnl != nil {
		b.span("journal.append", root, u, func() int64 {
			if jerr := b.jnl.Append(journal.Record{
				Type: journal.TypeCreate, Session: id, At: b.clock.Now().UnixNano(),
				Keywords: req.Keywords, Policy: ns.Policy().Name(), Epoch: sn.Epoch,
			}); jerr != nil {
				err = jerr
			}
			return 1
		})
	}
	if err != nil {
		return Response{}, nil, err
	}
	return Response{}, b.render(id, s, root, u), nil
}

func (b *InProc) ingest(req Request, root int) (Response, any, error) {
	batch := ToCorpus(req.Batch)
	var next *store.Snapshot
	var err error
	b.span("store.ingest", root, req.User, func() int64 {
		next, err = b.live.Ingest(batch)
		return int64(len(batch))
	})
	if err != nil {
		return Response{}, nil, &StatusError{Code: 422, Body: err.Error()}
	}
	b.span("rank.new_scorer", root, req.User, func() int64 {
		b.scorers[next.Epoch] = rank.NewScorer(next.Corpus, next.Index)
		return 0
	})
	out := map[string]any{"epoch": next.Epoch, "citations": len(batch)}
	return Response{Epoch: next.Epoch}, out, nil
}

// journalActions appends the session's not-yet-journaled actions, one
// record each, as the server does before acknowledging a mutation.
func (b *InProc) journalActions(id string, s *inSession, root, u int) {
	if b.jnl == nil {
		return
	}
	frames, err := s.nav.ExportedActions(s.journaled)
	if err != nil {
		return
	}
	for _, f := range frames {
		b.span("journal.append", root, u, func() int64 {
			if b.jnl.Append(journal.Record{Type: journal.TypeAction, Session: id, At: b.clock.Now().UnixNano(), Action: f}) == nil {
				s.journaled++
			}
			return 1
		})
	}
}

// Session returns the navigation session behind a session id, for the
// output checks.
func (b *InProc) Session(id string) (*navigate.Session, bool) {
	s, ok := b.sess[id]
	if !ok {
		return nil, false
	}
	return s.nav, true
}

// render builds the state response the server would send.
func (b *InProc) render(id string, s *inSession, root, u int) stateView {
	var vis map[navtree.NodeID]*core.VisibleNode
	b.span("navigate.visualize", root, u, func() int64 {
		vis = s.nav.Visualize()
		return int64(len(vis))
	})
	return renderState(id, s.keywords, s.nav, s.snap.Tree, vis)
}

// renderState renders a session's state the way bionav-server's
// stateResponse does: same fields, same JSON names.
func renderState(id, keywords string, ns *navigate.Session, tree *hierarchy.Tree, vis map[navtree.NodeID]*core.VisibleNode) stateView {
	at := ns.Active()
	cost := ns.Cost()
	nav := at.Nav()
	var build func(n navtree.NodeID) nodeView
	build = func(n navtree.NodeID) nodeView {
		v := vis[n]
		out := nodeView{Node: n, Label: v.Label, TreeID: tree.Node(nav.Concept(n)).TreeID, Count: v.Count, Expandable: v.Expandable}
		for _, c := range v.Children {
			out.Children = append(out.Children, build(c))
		}
		return out
	}
	return stateView{
		Session: id, Keywords: keywords, Results: nav.DistinctTotal(),
		Cost: Cost{Expands: cost.Expands, ConceptsRevealed: cost.ConceptsRevealed, CitationsListed: cost.CitationsListed, Navigation: cost.Navigation()},
		Tree: build(nav.Root()),
	}
}

type nodeView struct {
	Node       int        `json:"node"`
	Label      string     `json:"label"`
	TreeID     string     `json:"treeId,omitempty"`
	Count      int        `json:"count"`
	Expandable bool       `json:"expandable"`
	Children   []nodeView `json:"children,omitempty"`
}

type stateView struct {
	Session  string   `json:"session"`
	Keywords string   `json:"keywords"`
	Results  int      `json:"results"`
	Cost     Cost     `json:"cost"`
	Tree     nodeView `json:"tree"`
}

type citationView struct {
	ID      int64    `json:"id"`
	Title   string   `json:"title"`
	Authors []string `json:"authors"`
	Year    int      `json:"year"`
}

func (v stateView) state() *State {
	var conv func(n nodeView) Node
	conv = func(n nodeView) Node {
		out := Node{Node: n.Node, Label: n.Label, Count: n.Count, Expandable: n.Expandable}
		for _, c := range n.Children {
			out.Children = append(out.Children, conv(c))
		}
		return out
	}
	return &State{Session: v.Session, Results: v.Results, Cost: v.Cost, Tree: conv(v.Tree)}
}

// VisibleTree renders a session's visible tree as the server would send
// it, for comparing a replayed session with what the server returned.
func VisibleTree(ns *navigate.Session, tree *hierarchy.Tree) Node {
	return renderState("", "", ns, tree, ns.Visualize()).state().Tree
}

// allocBytes reads the process's cumulative heap allocation without
// stopping the world (the traced run is serial, so a delta around one
// call is that call's allocation).
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// ToCorpus converts an ingest batch from its wire form, as the server's
// ingest handler does.
func ToCorpus(batch []Citation) []corpus.Citation {
	out := make([]corpus.Citation, len(batch))
	for i, c := range batch {
		concepts := make([]hierarchy.ConceptID, len(c.Concepts))
		for j, id := range c.Concepts {
			concepts[j] = hierarchy.ConceptID(id)
		}
		out[i] = corpus.Citation{
			ID: corpus.CitationID(c.ID), Title: c.Title, Authors: c.Authors,
			Year: c.Year, Terms: c.Terms, Concepts: concepts,
		}
	}
	return out
}
