package history

import (
	"strings"
	"testing"
	"testing/quick"
)

// Catalogue helpers: hand-built histories over table "u". Version 1 of
// every key is the initial state (no writer in the history).

func rd(key string, ver uint64) Op { return Op{Kind: OpRead, Table: "u", Key: key, Ver: ver} }
func wr(key string, ver uint64) Op { return Op{Kind: OpWrite, Table: "u", Key: key, Ver: ver} }

func mkTxn(id string, start, commit int64, outcome string, ops ...Op) *TxnRecord {
	return &TxnRecord{ID: id, Session: 0, StartTS: start, CommitTS: commit, Outcome: outcome, Ops: ops}
}

func wantEdge(t *testing.T, e Edge, from, to string, typ EdgeType, key string) {
	t.Helper()
	if e.From != from || e.To != to || e.Type != typ || e.Key != key {
		t.Fatalf("edge = %s --%s[%s]--> %s, want %s --%s[%s]--> %s",
			e.From, e.Type, e.Key, e.To, from, typ, key, to)
	}
}

func TestCheckSerializableHistory(t *testing.T) {
	res := Check([]*TxnRecord{
		mkTxn("t1", 1, 10, OutcomeCommit, rd("x", 1), wr("x", 2)),
		mkTxn("t2", 11, 12, OutcomeCommit, rd("x", 2), wr("x", 4)),
	})
	if !res.Serializable {
		t.Fatalf("want serializable, got %+v", res)
	}
	if res.SI != SICertified {
		t.Fatalf("SI = %s, want certified: %+v", res.SI, res.SIViolations)
	}
	// t1 read x@1 and t2 installed x@4 later (t1's own install is
	// skipped), so a forward RW edge t1→t2 joins the WR and WW edges.
	if res.EdgeCount[EdgeWR] != 1 || res.EdgeCount[EdgeWW] != 1 || res.EdgeCount[EdgeRW] != 1 {
		t.Fatalf("edge counts = %v", res.EdgeCount)
	}
	s := res.Summary()
	for _, want := range []string{"certified: serializable", "certified: snapshot-isolation"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

// Dirty read: tb observes a version installed by the aborted ta.
func TestCheckDirtyRead(t *testing.T) {
	res := Check([]*TxnRecord{
		mkTxn("ta", 1, 0, OutcomeAbort, wr("x", 2)),
		mkTxn("tb", 2, 5, OutcomeCommit, rd("x", 2)),
	})
	if res.Serializable {
		t.Fatal("dirty read certified serializable")
	}
	if len(res.DirtyReads) != 1 {
		t.Fatalf("dirty reads = %+v", res.DirtyReads)
	}
	d := res.DirtyReads[0]
	if d.Reader != "tb" || d.Writer != "ta" || d.Key != "u/x" || d.Ver != 2 {
		t.Fatalf("dirty read witness = %+v", d)
	}
	if res.SI != SIRefuted {
		t.Fatalf("SI = %s, want refuted", res.SI)
	}
	if !strings.Contains(res.Summary(), "dirty read") {
		t.Fatalf("summary missing dirty read:\n%s", res.Summary())
	}
}

// Lost update: t1 and t2 both read x@1 and write x; the serialization
// cycle is RW–RW (SI-permitted shape) but first-committer-wins refutes
// snapshot isolation.
func TestCheckLostUpdate(t *testing.T) {
	res := Check([]*TxnRecord{
		mkTxn("t1", 1, 10, OutcomeCommit, rd("x", 1), wr("x", 2)),
		mkTxn("t2", 2, 12, OutcomeCommit, rd("x", 1), wr("x", 3)),
	})
	if res.Serializable || len(res.Cycles) != 1 {
		t.Fatalf("want one cycle, got %+v", res)
	}
	c := res.Cycles[0]
	if len(c.Nodes) != 2 || c.Nodes[0] != "t1" || c.Nodes[1] != "t2" {
		t.Fatalf("cycle nodes = %v", c.Nodes)
	}
	wantEdge(t, c.Edges[0], "t1", "t2", EdgeRW, "u/x")
	wantEdge(t, c.Edges[1], "t2", "t1", EdgeRW, "u/x")
	if !c.SIPermitted {
		t.Fatal("lost-update cycle should be SI-permitted shape (consecutive RW)")
	}
	if res.SI != SIRefuted {
		t.Fatalf("SI = %s, want refuted", res.SI)
	}
	if len(res.SIViolations) != 1 || res.SIViolations[0].Kind != "first-committer-wins" || res.SIViolations[0].Txn != "t2" {
		t.Fatalf("si violations = %+v", res.SIViolations)
	}
}

// Read skew: t1 reads x before and y after t2's paired update. The
// cycle RW–WR has no consecutive RW pair, so SI is refuted both
// structurally (Fekete) and by interval infeasibility.
func TestCheckReadSkew(t *testing.T) {
	res := Check([]*TxnRecord{
		mkTxn("t2", 1, 10, OutcomeCommit, wr("x", 2), wr("y", 2)),
		mkTxn("t1", 2, 12, OutcomeCommit, rd("x", 1), rd("y", 2)),
	})
	if res.Serializable || len(res.Cycles) != 1 {
		t.Fatalf("want one cycle, got %+v", res)
	}
	c := res.Cycles[0]
	wantEdge(t, c.Edges[0], "t1", "t2", EdgeRW, "u/x")
	wantEdge(t, c.Edges[1], "t2", "t1", EdgeWR, "u/y")
	if c.SIPermitted {
		t.Fatal("read-skew cycle must not be SI-permitted (no consecutive RW)")
	}
	if res.SI != SIRefuted {
		t.Fatalf("SI = %s, want refuted", res.SI)
	}
	kinds := map[string]bool{}
	for _, v := range res.SIViolations {
		kinds[v.Kind] = true
	}
	if !kinds["fekete-cycle"] || !kinds["no-consistent-snapshot"] {
		t.Fatalf("si violations = %+v", res.SIViolations)
	}
}

// Write skew: disjoint writes under mutual reads. Serializability is
// refuted with an RW–RW witness; snapshot isolation is certified —
// this is the anomaly SI permits.
func TestCheckWriteSkew(t *testing.T) {
	res := Check([]*TxnRecord{
		mkTxn("t1", 1, 10, OutcomeCommit, rd("x", 1), rd("y", 1), wr("x", 2)),
		mkTxn("t2", 2, 11, OutcomeCommit, rd("x", 1), rd("y", 1), wr("y", 2)),
	})
	if res.Serializable || len(res.Cycles) != 1 {
		t.Fatalf("want one cycle, got %+v", res)
	}
	c := res.Cycles[0]
	if len(c.Nodes) != 2 {
		t.Fatalf("cycle nodes = %v", c.Nodes)
	}
	wantEdge(t, c.Edges[0], "t1", "t2", EdgeRW, "u/y")
	wantEdge(t, c.Edges[1], "t2", "t1", EdgeRW, "u/x")
	if !c.SIPermitted {
		t.Fatal("write-skew cycle should be SI-permitted")
	}
	if res.SI != SICertified {
		t.Fatalf("SI = %s (violations %+v), want certified", res.SI, res.SIViolations)
	}
	s := res.Summary()
	for _, want := range []string{"refuted: serializable", "write skew", "certified: snapshot-isolation"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

// Long fork: two readers observe the two independent writes in
// opposite orders. The 4-cycle alternates WR/RW — impossible under SI.
func TestCheckLongFork(t *testing.T) {
	res := Check([]*TxnRecord{
		mkTxn("t1", 1, 10, OutcomeCommit, wr("x", 2)),
		mkTxn("t2", 1, 11, OutcomeCommit, wr("y", 2)),
		mkTxn("t3", 3, 20, OutcomeCommit, rd("x", 2), rd("y", 1)),
		mkTxn("t4", 3, 21, OutcomeCommit, rd("x", 1), rd("y", 2)),
	})
	if res.Serializable || len(res.Cycles) != 1 {
		t.Fatalf("want one cycle, got %+v", res)
	}
	c := res.Cycles[0]
	if len(c.Nodes) != 4 {
		t.Fatalf("cycle nodes = %v", c.Nodes)
	}
	if c.SIPermitted {
		t.Fatal("long-fork cycle must not be SI-permitted")
	}
	types := map[EdgeType]int{}
	for _, e := range c.Edges {
		types[e.Type]++
	}
	if types[EdgeWR] != 2 || types[EdgeRW] != 2 {
		t.Fatalf("cycle edges = %+v", c.Edges)
	}
	if res.SI != SIRefuted {
		t.Fatalf("SI = %s, want refuted", res.SI)
	}
}

// A history without timestamps still gets the serializability verdict
// but SI is not evaluated.
func TestCheckNoTimestamps(t *testing.T) {
	res := Check([]*TxnRecord{
		mkTxn("t1", 0, 0, OutcomeCommit, rd("x", 1), wr("x", 2)),
		mkTxn("t2", 0, 0, OutcomeCommit, rd("x", 2)),
	})
	if !res.Serializable {
		t.Fatalf("want serializable, got %+v", res)
	}
	if res.SI != SINotEvaluated {
		t.Fatalf("SI = %s, want not-evaluated", res.SI)
	}
	if !strings.Contains(res.Summary(), "not evaluated") {
		t.Fatalf("summary:\n%s", res.Summary())
	}
}

// Install order contradicting commit order is flagged even when every
// per-transaction interval is feasible.
func TestCheckInstallOrderViolation(t *testing.T) {
	res := Check([]*TxnRecord{
		mkTxn("t1", 1, 20, OutcomeCommit, wr("x", 2)),
		mkTxn("t2", 1, 10, OutcomeCommit, wr("x", 3)),
	})
	if res.SI != SIRefuted {
		t.Fatalf("SI = %s, want refuted: %+v", res.SI, res.SIViolations)
	}
	found := false
	for _, v := range res.SIViolations {
		if v.Kind == "install-order" && v.Key == "u/x" {
			found = true
		}
	}
	if !found {
		t.Fatalf("si violations = %+v", res.SIViolations)
	}
}

// Unversioned ops carry no dependency information and must not poison
// the graph; aborted transactions contribute no edges.
func TestCheckUnversionedAndAborted(t *testing.T) {
	res := Check([]*TxnRecord{
		mkTxn("t1", 1, 10, OutcomeCommit, rd("x", 0), wr("x", 2)),
		mkTxn("t2", 2, 0, OutcomeAbort, rd("x", 2), wr("y", 9)),
		mkTxn("t3", 3, 12, OutcomeCommit, rd("x", 2)),
	})
	if !res.Serializable {
		t.Fatalf("want serializable, got %+v", res)
	}
	if res.UnversionedOps != 1 {
		t.Fatalf("unversioned = %d", res.UnversionedOps)
	}
	if res.Committed != 2 || res.Aborted != 1 {
		t.Fatalf("committed/aborted = %d/%d", res.Committed, res.Aborted)
	}
	// t2's read of a committed version and its aborted write create no
	// edges and no dirty reads.
	if len(res.DirtyReads) != 0 {
		t.Fatalf("dirty reads = %+v", res.DirtyReads)
	}
}

// Duplicate installs (capture artifacts) are counted and deduplicated
// rather than fabricating WW self-conflicts.
func TestCheckDuplicateInstalls(t *testing.T) {
	res := Check([]*TxnRecord{
		mkTxn("t1", 1, 10, OutcomeCommit, wr("x", 2)),
		mkTxn("t2", 1, 11, OutcomeCommit, wr("x", 2)),
	})
	if res.DuplicateInstalls != 1 {
		t.Fatalf("duplicate installs = %d", res.DuplicateInstalls)
	}
	if !res.Serializable {
		t.Fatalf("want serializable, got %+v", res)
	}
}

func TestCheckEmptyHistory(t *testing.T) {
	res := Check(nil)
	if !res.Serializable || res.Txns != 0 || len(res.EdgeCount) != 0 {
		t.Fatalf("empty history = %+v", res)
	}
}

// Three RW edges across three keys close T1 → T2 → T3 → T1; T0, which
// installed every version they read, feeds the cycle but is not in it.
func TestCheckThreeWayCycle(t *testing.T) {
	res := Check([]*TxnRecord{
		mkTxn("T0", 0, 0, OutcomeCommit, wr("x", 1), wr("y", 1), wr("z", 1)),
		mkTxn("T1", 0, 0, OutcomeCommit, rd("x", 1), wr("z", 2)),
		mkTxn("T2", 0, 0, OutcomeCommit, rd("y", 1), wr("x", 2)),
		mkTxn("T3", 0, 0, OutcomeCommit, rd("z", 1), wr("y", 2)),
	})
	if res.Serializable || len(res.Cycles) != 1 {
		t.Fatalf("want one cycle, got %+v", res)
	}
	c := res.Cycles[0]
	wantEdge(t, c.Edges[0], "T1", "T2", EdgeRW, "u/x")
	wantEdge(t, c.Edges[1], "T2", "T3", EdgeRW, "u/y")
	wantEdge(t, c.Edges[2], "T3", "T1", EdgeRW, "u/z")
	if len(c.Nodes) != 3 || !c.SIPermitted {
		t.Fatalf("cycle = %+v", c)
	}
}

// Writers given out of version order still chain by version.
func TestCheckVersionOrderDefinesWW(t *testing.T) {
	res := Check([]*TxnRecord{
		mkTxn("T3", 0, 0, OutcomeCommit, wr("x", 30)),
		mkTxn("T1", 0, 0, OutcomeCommit, wr("x", 10)),
		mkTxn("T2", 0, 0, OutcomeCommit, wr("x", 20)),
	})
	if !res.Serializable {
		t.Fatalf("WW chain flagged: %+v", res)
	}
	if len(res.EdgeCount) != 1 || res.EdgeCount[EdgeWW] != 2 {
		t.Fatalf("edge counts = %v, want 2 WW (T1→T2→T3)", res.EdgeCount)
	}
}

// T1 reads x@1, then T2 installs x@2: one RW edge, no cycle.
func TestCheckSingleRWEdge(t *testing.T) {
	res := Check([]*TxnRecord{
		mkTxn("T0", 0, 0, OutcomeCommit, wr("x", 1)),
		mkTxn("T1", 0, 0, OutcomeCommit, rd("x", 1)),
		mkTxn("T2", 0, 0, OutcomeCommit, wr("x", 2)),
	})
	if !res.Serializable || res.EdgeCount[EdgeRW] != 1 {
		t.Fatalf("acyclic history: %+v", res)
	}
}

// Property: transactions that each touch only a key of their own never
// form a cycle, whatever they read and write.
func TestCheckDisjointKeysNeverCycle(t *testing.T) {
	f := func(raw []uint8) bool {
		byTxn := map[string]*TxnRecord{}
		var recs []*TxnRecord
		for i, b := range raw {
			id := string(rune('A' + i%26))
			r := byTxn[id]
			if r == nil {
				r = mkTxn(id, 0, 0, OutcomeCommit)
				byTxn[id] = r
				recs = append(recs, r)
			}
			key := id + "-private"
			if b%2 == 0 {
				r.Ops = append(r.Ops, wr(key, uint64(b)+1))
			} else {
				r.Ops = append(r.Ops, rd(key, uint64(b)))
			}
		}
		return Check(recs).Serializable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
