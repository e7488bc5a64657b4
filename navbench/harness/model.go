// Package harness is the library half of the navbench benchmark: the
// seeded user model, its two back-ends (HTTP against a running
// bionav-server, and in-process calls on the layers' public functions),
// the open-loop load driver, the knee rule of a capacity search, and the
// span recorder of the traced run. It is deterministic in the repository's
// DET01 sense: time comes from an injected Clock and randomness from
// internal/rng, so package main owns the wall clock.
package harness

import (
	"context"
	"fmt"
	"time"

	"bionav/internal/rng"
)

// Op names one kind of /api/ request.
type Op int

const (
	OpQuery Op = iota
	OpExpand
	OpResults
	OpBacktrack
	OpIgnore
	OpIngest
	NumOps
)

var opNames = [NumOps]string{"query", "expand", "results", "backtrack", "ignore", "ingest"}

// String names the op as metrics and span files spell it.
func (o Op) String() string {
	if o < 0 || o >= NumOps {
		return fmt.Sprintf("op%d", int(o))
	}
	return opNames[o]
}

// Node is the client's view of one visible navigation-tree node: the
// fields of the server's node rendering the user model steers by.
type Node struct {
	Node       int    `json:"node"`
	Label      string `json:"label"`
	Count      int    `json:"count"`
	Expandable bool   `json:"expandable"`
	Children   []Node `json:"children,omitempty"`
}

// Cost mirrors the server's navigation-cost view.
type Cost struct {
	Expands          int `json:"expands"`
	ConceptsRevealed int `json:"conceptsRevealed"`
	CitationsListed  int `json:"citationsListed"`
	Navigation       int `json:"navigation"`
}

// State is a session state response.
type State struct {
	Session string `json:"session"`
	Results int    `json:"results"`
	Cost    Cost   `json:"cost"`
	Tree    Node   `json:"tree"`
	// Degraded is set on an EXPAND whose cut optimisation ran out of the
	// server's -expand-budget and fell back to the static cut.
	Degraded bool `json:"degraded"`
}

// Citation is one ingest-batch citation in the server's wire form.
type Citation struct {
	ID       int64    `json:"id"`
	Title    string   `json:"title"`
	Authors  []string `json:"authors,omitempty"`
	Year     int      `json:"year"`
	Terms    []string `json:"terms,omitempty"`
	Concepts []int    `json:"concepts"`
}

// Request is one user action. User identifies the simulated user (the
// span files' session id); Session is the server's session id.
type Request struct {
	Op       Op
	User     int
	Session  string
	Node     int
	Keywords string
	Batch    []Citation
}

// Response is what a back-end returns: the new state for navigation
// actions, the listing length for SHOWRESULTS, the epoch for an ingest.
type Response struct {
	State  *State
	Listed int
	Epoch  uint64
}

// Backend executes requests. Implementations must be safe for concurrent
// use when driven by Run.
type Backend interface {
	Do(ctx context.Context, req Request) (Response, error)
}

// StatusError is a non-2xx response.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.Code, e.Body)
}

// Mix weights of the TOPDOWN user, normalized over the actions valid in
// the current visible tree (the action mix of the paper's §VIII user).
const (
	weightExpand    = 50
	weightResults   = 25
	weightBacktrack = 15
	weightIgnore    = 10
)

// Kind selects the user script.
type Kind int

const (
	// Topdown opens a query and then runs the TOPDOWN action mix for a
	// fixed number of actions.
	Topdown Kind = iota
	// Cold opens a query and lists the root's results.
	Cold
)

// UserConfig is the shared part of every user of one workload.
type UserConfig struct {
	Kind    Kind
	Queries []string // the query pool
	// Assign is the index in Queries of each user's query, by user id;
	// nil lets every user draw its own uniformly.
	Assign  []int
	Actions int // Topdown: actions after the query
	Think   time.Duration
}

// User is one seeded simulated user. Every decision draws from its own
// stream, and candidate actions are gated by the tree the back-end last
// returned, so the user never sends a structurally invalid request: a
// 422 is a real failure. Not safe for concurrent use.
type User struct {
	cfg     *UserConfig
	id      int
	src     *rng.Source
	st      *State
	step    int
	depth   int // EXPANDs minus BACKTRACKs: how much history can be undone
	ended   bool
	queryKw string
}

// NewUser returns user id of cfg, seeded from seed and id alone, so the
// same (seed, id) pair replays the same session on any back-end.
func NewUser(cfg *UserConfig, seed uint64, id int) *User {
	src := rng.New(seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
	u := &User{cfg: cfg, id: id, src: src}
	if cfg.Assign != nil {
		u.queryKw = cfg.Queries[cfg.Assign[id%len(cfg.Assign)]]
	} else {
		u.queryKw = cfg.Queries[src.Intn(len(cfg.Queries))]
	}
	return u
}

// ID is the user's index in its workload.
func (u *User) ID() int { return u.id }

// Keywords is the user's query.
func (u *User) Keywords() string { return u.queryKw }

// Last is the last state the back-end returned (nil before the query).
func (u *User) Last() *State { return u.st }

// Think draws the next exponential think time.
func (u *User) Think() time.Duration {
	return time.Duration(u.src.ExpFloat64() * float64(u.cfg.Think))
}

// Next returns the user's next request; ok is false once the script ends.
func (u *User) Next() (req Request, ok bool) {
	if u.ended {
		return Request{}, false
	}
	req = Request{User: u.id}
	if u.st == nil {
		req.Op, req.Keywords = OpQuery, u.queryKw
		return req, true
	}
	req.Session = u.st.Session
	switch u.cfg.Kind {
	case Cold:
		if u.step > 0 {
			return Request{}, false
		}
		req.Op, req.Node = OpResults, u.st.Tree.Node
		return req, true
	default:
		if u.step >= u.cfg.Actions {
			return Request{}, false
		}
		req.Op, req.Node = u.choose()
		return req, true
	}
}

// Observe feeds the response to req back into the user.
func (u *User) Observe(req Request, resp Response) {
	if req.Op != OpQuery {
		u.step++
	}
	switch req.Op {
	case OpExpand:
		u.depth++
	case OpBacktrack:
		u.depth--
	}
	if resp.State != nil {
		u.st = resp.State
	}
}

// End stops the script (after a failed request).
func (u *User) End() { u.ended = true }

// choose picks the next TOPDOWN action. SHOWRESULTS and IGNORE are always
// valid on a visible node, so there is always a candidate.
func (u *User) choose() (Op, int) {
	visible := Flatten(u.st.Tree)
	var expandable []Node
	for _, n := range visible {
		if n.Expandable {
			expandable = append(expandable, n)
		}
	}
	type cand struct {
		op     Op
		weight int
	}
	var cands []cand
	if len(expandable) > 0 {
		cands = append(cands, cand{OpExpand, weightExpand})
	}
	cands = append(cands, cand{OpResults, weightResults}, cand{OpIgnore, weightIgnore})
	if u.depth > 0 {
		cands = append(cands, cand{OpBacktrack, weightBacktrack})
	}
	total := 0
	for _, c := range cands {
		total += c.weight
	}
	pick := u.src.Intn(total)
	var op Op
	for _, c := range cands {
		if pick < c.weight {
			op = c.op
			break
		}
		pick -= c.weight
	}
	switch op {
	case OpExpand:
		// TOPDOWN users chase the heavy components: weight by count.
		return OpExpand, weightedByCount(u.src, expandable)
	case OpResults:
		return OpResults, weightedByCount(u.src, visible)
	case OpIgnore:
		return OpIgnore, visible[u.src.Intn(len(visible))].Node
	default:
		return op, 0
	}
}

// Flatten lists a visible tree depth-first, in the server's rendering
// order.
func Flatten(root Node) []Node {
	out := []Node{root}
	for _, c := range root.Children {
		out = append(out, Flatten(c)...)
	}
	return out
}

func weightedByCount(src *rng.Source, nodes []Node) int {
	total := 0
	for _, n := range nodes {
		total += n.Count + 1
	}
	pick := src.Intn(total)
	for _, n := range nodes {
		if pick < n.Count+1 {
			return n.Node
		}
		pick -= n.Count + 1
	}
	return nodes[len(nodes)-1].Node
}
