package history

import (
	"fmt"
	"sort"
	"strings"
)

// EdgeType classifies a DSG dependency edge.
type EdgeType string

// DSG edge types. Note the lexical order RW < WR < WW: witness
// extraction prefers the lexically smallest type, so anti-dependency
// edges — the interesting ones in SI anomalies — are named first.
const (
	EdgeWR EdgeType = "WR" // read-from: writer of v → reader of v
	EdgeWW EdgeType = "WW" // install order: writer of v → writer of next version
	EdgeRW EdgeType = "RW" // anti-dependency: reader of v → writer of next version
)

// Edge is one DSG dependency with its provenance.
type Edge struct {
	From string   `json:"from"`
	To   string   `json:"to"`
	Type EdgeType `json:"type"`
	Key  string   `json:"key"`
}

// Cycle is one serializability violation: an ordered witness. Edges[i]
// leads from Txns[i] to Txns[(i+1) % len(Txns)].
type Cycle struct {
	Nodes []string `json:"txns"`
	Edges []Edge   `json:"edges"`
	// SIPermitted reports whether the cycle has two consecutive RW
	// edges somewhere — by Fekete et al., every cycle snapshot
	// isolation can produce has that shape (write skew). A cycle
	// without it refutes SI regardless of timestamps.
	SIPermitted bool `json:"si_permitted"`
}

// DirtyRead is a committed transaction observing a version installed
// by an aborted one.
type DirtyRead struct {
	Reader string `json:"reader"`
	Writer string `json:"writer"`
	Key    string `json:"key"`
	Ver    uint64 `json:"ver"`
}

// SIViolation is one reason snapshot isolation does not hold.
type SIViolation struct {
	Txn string `json:"txn"`
	// Kind is "no-consistent-snapshot", "first-committer-wins",
	// "install-order" or "fekete-cycle".
	Kind   string `json:"kind"`
	Key    string `json:"key,omitempty"`
	Detail string `json:"detail"`
}

// SI verdict values.
const (
	SICertified    = "certified"
	SIRefuted      = "refuted"
	SINotEvaluated = "not-evaluated" // history lacks start/commit timestamps
)

// Result is a certification verdict over one history.
type Result struct {
	Txns      int `json:"txns"`
	Committed int `json:"committed"`
	Aborted   int `json:"aborted"`
	Ops       int `json:"ops"`
	// UnversionedOps counts ops whose binding reported no version;
	// they carry no dependency information and are excluded from the
	// graph (scans and non-MVCC bindings produce these).
	UnversionedOps int `json:"unversioned_ops"`
	// DuplicateInstalls counts (key, version) pairs claimed by more
	// than one committed writer — a capture artifact (e.g. merged
	// histories); the lexically first writer is kept.
	DuplicateInstalls int              `json:"duplicate_installs,omitempty"`
	EdgeCount         map[EdgeType]int `json:"edge_count"`

	Serializable bool        `json:"serializable"`
	Cycles       []Cycle     `json:"cycles,omitempty"`
	DirtyReads   []DirtyRead `json:"dirty_reads,omitempty"`

	// SI is SICertified, SIRefuted or SINotEvaluated.
	SI           string        `json:"si"`
	SIViolations []SIViolation `json:"si_violations,omitempty"`
}

// install is one committed version of a key.
type install struct {
	ver      uint64
	txn      string
	commitTS int64
}

// Check certifies or refutes serializability and snapshot isolation
// over a decoded history.
//
// Serializability: the DSG over committed transactions (WR / WW / RW
// edges across commit-ordered MVCC versions — the Zellag & Kemme
// dependency graph) must be acyclic and no committed transaction may
// have read an aborted write. Each strongly connected component yields
// a named witness cycle.
//
// Snapshot isolation, when the history carries start/commit
// timestamps: each committed transaction must admit a snapshot point
// s ≤ commit consistent with every read — at or after the commit of
// each version it observed, before the commit of the next installed
// version of each key it read — and at or after the commit of any
// earlier committed writer of a key it wrote (first-committer-wins).
// An empty interval names the two operations that collide. The
// snapshot point is not required to follow the transaction's begin:
// this is generalized SI (Elnikety et al.), the honest claim for a
// client-coordinated store whose read-around path can serve the
// pre-commit image for a moment after a writer's commit point —
// anchoring snapshots at begin would refute such stale-but-consistent
// reads that plain SI semantics never forbid. Per-key install order
// must agree with commit order, and every cycle must carry the Fekete
// consecutive-RW shape; a cycle without it refutes (G)SI even without
// timestamps.
func Check(recs []*TxnRecord) *Result {
	res := &Result{EdgeCount: map[EdgeType]int{}, SI: SINotEvaluated}

	committed := map[string]*TxnRecord{}
	var order []string // committed ids, input order for determinism
	for _, r := range recs {
		res.Txns++
		res.Ops += len(r.Ops)
		if r.Committed() {
			res.Committed++
			committed[r.ID] = r
			order = append(order, r.ID)
		} else {
			res.Aborted++
		}
	}

	// Index installs (committed) and aborted installs per graph key.
	installs := map[string][]install{}
	abortedInstall := map[string]map[uint64]string{}
	for _, r := range recs {
		for _, op := range r.Ops {
			if op.Kind == OpRead {
				if op.Ver == 0 {
					res.UnversionedOps++
				}
				continue
			}
			if op.Ver == 0 {
				res.UnversionedOps++
				continue
			}
			k := op.GraphKey()
			if r.Committed() {
				installs[k] = append(installs[k], install{ver: op.Ver, txn: r.ID, commitTS: r.CommitTS})
			} else {
				m := abortedInstall[k]
				if m == nil {
					m = map[uint64]string{}
					abortedInstall[k] = m
				}
				m[op.Ver] = r.ID
			}
		}
	}
	for k, ins := range installs {
		sort.Slice(ins, func(i, j int) bool {
			if ins[i].ver != ins[j].ver {
				return ins[i].ver < ins[j].ver
			}
			return ins[i].txn < ins[j].txn
		})
		dedup := ins[:0]
		for _, in := range ins {
			if len(dedup) > 0 && dedup[len(dedup)-1].ver == in.ver {
				res.DuplicateInstalls++
				continue
			}
			dedup = append(dedup, in)
		}
		installs[k] = dedup
	}

	// writerOf resolves (key, version) to its committed installer.
	writerOf := func(k string, v uint64) (install, bool) {
		ins := installs[k]
		i := sort.Search(len(ins), func(i int) bool { return ins[i].ver >= v })
		if i < len(ins) && ins[i].ver == v {
			return ins[i], true
		}
		return install{}, false
	}
	// nextInstall returns the smallest committed install with version
	// greater than v on k, excluding self.
	nextInstall := func(k string, v uint64, self string) (install, bool) {
		ins := installs[k]
		i := sort.Search(len(ins), func(i int) bool { return ins[i].ver > v })
		for ; i < len(ins); i++ {
			if ins[i].txn != self {
				return ins[i], true
			}
		}
		return install{}, false
	}

	// Build the edge set (deduplicated) and adjacency.
	edgeSeen := map[Edge]bool{}
	adj := map[string][]Edge{}
	addEdge := func(e Edge) {
		if e.From == e.To || e.From == "" || e.To == "" || edgeSeen[e] {
			return
		}
		edgeSeen[e] = true
		res.EdgeCount[e.Type]++
		adj[e.From] = append(adj[e.From], e)
	}

	for _, id := range order {
		r := committed[id]
		for _, op := range r.Ops {
			if op.Ver == 0 {
				continue
			}
			k := op.GraphKey()
			switch op.Kind {
			case OpRead:
				if w, ok := writerOf(k, op.Ver); ok {
					addEdge(Edge{From: w.txn, To: id, Type: EdgeWR, Key: k})
				} else if m := abortedInstall[k]; m != nil {
					if aw, dirty := m[op.Ver]; dirty {
						res.DirtyReads = append(res.DirtyReads, DirtyRead{Reader: id, Writer: aw, Key: k, Ver: op.Ver})
					}
				}
				if n, ok := nextInstall(k, op.Ver, id); ok {
					addEdge(Edge{From: id, To: n.txn, Type: EdgeRW, Key: k})
				}
			case OpWrite, OpDelete:
				if n, ok := nextInstall(k, op.Ver, ""); ok && n.txn != id {
					addEdge(Edge{From: id, To: n.txn, Type: EdgeWW, Key: k})
				}
			}
		}
	}
	sort.Slice(res.DirtyReads, func(i, j int) bool {
		a, b := res.DirtyReads[i], res.DirtyReads[j]
		if a.Reader != b.Reader {
			return a.Reader < b.Reader
		}
		return a.Key < b.Key
	})
	for _, es := range adj {
		sort.Slice(es, func(i, j int) bool {
			a, b := es[i], es[j]
			if a.To != b.To {
				return a.To < b.To
			}
			if a.Type != b.Type {
				return a.Type < b.Type
			}
			return a.Key < b.Key
		})
	}

	// SCCs over committed transactions; each multi-node component is
	// reduced to its shortest witness cycle through the lexically
	// smallest member.
	for _, comp := range sccs(order, adj) {
		if len(comp) > 1 {
			res.Cycles = append(res.Cycles, witnessCycle(comp, adj))
		}
	}
	sort.Slice(res.Cycles, func(i, j int) bool {
		return res.Cycles[i].Nodes[0] < res.Cycles[j].Nodes[0]
	})
	res.Serializable = len(res.Cycles) == 0 && len(res.DirtyReads) == 0

	res.checkSI(committed, order, installs)
	return res
}

// witnessCycle extracts the shortest cycle through the smallest node
// of a strongly connected component, with concrete edges named.
func witnessCycle(comp []string, adj map[string][]Edge) Cycle {
	in := map[string]bool{}
	for _, n := range comp {
		in[n] = true
	}
	sort.Strings(comp)
	start := comp[0]

	// BFS from start within the component; parent edges reconstruct
	// the shortest path back to start.
	parent := map[string]Edge{}
	dist := map[string]int{start: 0}
	queue := []string{start}
	var closing Edge
	found := false
	for len(queue) > 0 && !found {
		n := queue[0]
		queue = queue[1:]
		for _, e := range adj[n] {
			if !in[e.To] {
				continue
			}
			if e.To == start {
				closing = e
				found = true
				break
			}
			if _, seen := dist[e.To]; !seen {
				dist[e.To] = dist[n] + 1
				parent[e.To] = e
				queue = append(queue, e.To)
			}
		}
	}

	var edges []Edge
	edges = append(edges, closing)
	for n := closing.From; n != start; {
		e := parent[n]
		edges = append(edges, e)
		n = e.From
	}
	// Reverse into start → … → start order.
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	c := Cycle{Edges: edges}
	for _, e := range edges {
		c.Nodes = append(c.Nodes, e.From)
	}
	n := len(edges)
	for i := 0; i < n; i++ {
		if edges[i].Type == EdgeRW && edges[(i+1)%n].Type == EdgeRW {
			c.SIPermitted = true
			break
		}
	}
	return c
}

// checkSI runs the snapshot-isolation certification.
func (res *Result) checkSI(committed map[string]*TxnRecord, order []string, installs map[string][]install) {
	addViolation := func(v SIViolation) { res.SIViolations = append(res.SIViolations, v) }

	// Structural refutation is timestamp-free: a cycle without two
	// consecutive RW edges cannot occur under SI (Fekete et al.).
	for _, c := range res.Cycles {
		if !c.SIPermitted {
			addViolation(SIViolation{
				Txn:    c.Nodes[0],
				Kind:   "fekete-cycle",
				Detail: fmt.Sprintf("cycle %s has no consecutive RW pair; SI cannot produce it", strings.Join(c.Nodes, " -> ")),
			})
		}
	}

	hasTS := len(order) > 0
	for _, id := range order {
		r := committed[id]
		if r.StartTS == 0 || r.CommitTS == 0 {
			hasTS = false
			break
		}
	}

	if hasTS {
		// Per-key install order must agree with commit order: under SI
		// (first-committer-wins) writers of a key are never concurrent
		// and install in commit order.
		keys := make([]string, 0, len(installs))
		for k := range installs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ins := installs[k]
			for i := 1; i < len(ins); i++ {
				if ins[i].commitTS < ins[i-1].commitTS {
					addViolation(SIViolation{
						Txn:  ins[i].txn,
						Kind: "install-order",
						Key:  k,
						Detail: fmt.Sprintf("%s installed %s@v%d (commit %d) after %s installed v%d (commit %d): version order contradicts commit order",
							ins[i].txn, k, ins[i].ver, ins[i].commitTS, ins[i-1].txn, ins[i-1].ver, ins[i-1].commitTS),
					})
				}
			}
		}

		// Interval feasibility: find a snapshot point for each txn.
		writersOf := map[string][]install{} // key → committed writers by commitTS
		for k, ins := range installs {
			ws := append([]install(nil), ins...)
			sort.Slice(ws, func(i, j int) bool { return ws[i].commitTS < ws[j].commitTS })
			writersOf[k] = ws
		}
		for _, id := range order {
			r := committed[id]
			// Generalized SI: the snapshot may precede begin, so the
			// interval starts unbounded below (0 — timestamps are
			// positive) and only reads/FCW raise it.
			lo, hi := int64(0), r.CommitTS
			loWhy := "any snapshot"
			hiWhy := "commit"
			kind := "no-consistent-snapshot"
			for _, op := range r.Ops {
				if op.Ver == 0 {
					continue
				}
				k := op.GraphKey()
				switch op.Kind {
				case OpRead:
					ins := installs[k]
					i := sort.Search(len(ins), func(i int) bool { return ins[i].ver >= op.Ver })
					if i < len(ins) && ins[i].ver == op.Ver && ins[i].txn != id {
						if c := ins[i].commitTS; c > lo {
							lo, loWhy = c, fmt.Sprintf("read %s@v%d written by %s (commit %d)", k, op.Ver, ins[i].txn, c)
							kind = "no-consistent-snapshot"
						}
					}
					for j := sort.Search(len(ins), func(i int) bool { return ins[i].ver > op.Ver }); j < len(ins); j++ {
						if ins[j].txn == id {
							continue
						}
						if c := ins[j].commitTS; c-1 < hi {
							hi, hiWhy = c-1, fmt.Sprintf("read %s@v%d while %s installed v%d (commit %d)", k, op.Ver, ins[j].txn, ins[j].ver, c)
						}
						break
					}
				case OpWrite, OpDelete:
					// First-committer-wins: every earlier-committed
					// writer of k must precede this txn's snapshot.
					for _, w := range writersOf[k] {
						if w.commitTS >= r.CommitTS || w.txn == id {
							continue
						}
						if w.commitTS > lo {
							lo, loWhy = w.commitTS, fmt.Sprintf("both wrote %s; %s committed first (commit %d)", k, w.txn, w.commitTS)
							kind = "first-committer-wins"
						}
					}
				}
			}
			if lo > hi {
				addViolation(SIViolation{
					Txn:    id,
					Kind:   kind,
					Detail: fmt.Sprintf("%s admits no snapshot point: needs ≥ %d (%s) but ≤ %d (%s)", id, lo, loWhy, hi, hiWhy),
				})
			}
		}
	}

	switch {
	case len(res.SIViolations) > 0 || len(res.DirtyReads) > 0:
		res.SI = SIRefuted
	case hasTS:
		res.SI = SICertified
	default:
		res.SI = SINotEvaluated
	}
}
