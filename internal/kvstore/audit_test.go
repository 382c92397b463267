package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ycsbt/internal/db"
)

// TestBindingUpholdsImmutability drives the kvstore db binding (Read
// and Scan with and without field projections, updates) and the
// audited engine's own BatchApply/BatchGet, including the fields==nil
// projection that used to alias the engine map, and verifies no record
// handed out by Get/Scan/BatchGet was ever mutated.
func TestBindingUpholdsImmutability(t *testing.T) {
	ctx := context.Background()
	audit := NewAuditEngine(OpenMemoryShards(4))
	defer audit.Close()
	b := NewEngineBinding(audit)

	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("user%03d", i)
		if err := b.Insert(ctx, "t", key, db.Record{"f0": []byte("a"), "f1": []byte("b")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("user%03d", i)
		// Full read (fields==nil): the caller owns the returned map and
		// may extend it without corrupting engine state.
		rec, err := b.Read(ctx, "t", key, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec["caller-added"] = []byte("x")
		// Projected read.
		if _, err := b.Read(ctx, "t", key, []string{"f0"}); err != nil {
			t.Fatal(err)
		}
		if err := b.Update(ctx, "t", key, db.Record{"f1": []byte("updated")}); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := b.Scan(ctx, "t", "", 32, nil)
	if err != nil || len(kvs) != 32 {
		t.Fatalf("Scan = %d, %v", len(kvs), err)
	}
	for _, kv := range kvs {
		kv.Fields.Map()["scan-added"] = []byte("y")
	}
	// Batched engine calls: an update through BatchApply, then reads
	// through BatchGet whose records, projected as a binding projects
	// them, the holder may extend.
	if r := audit.BatchApply([]Mutation{{Op: MutUpdate, Table: "t", Key: "user003", Fields: db.Record{"f0": []byte("z")}}}); r[0].Err != nil {
		t.Fatalf("batch update: %v", r[0].Err)
	}
	reqs := []GetReq{{Table: "t", Key: "user001"}, {Table: "t", Key: "user002"}, {Table: "t", Key: "user003"}}
	projections := [][]string{nil, {"f1"}, nil}
	for i, r := range audit.BatchGet(reqs) {
		if r.Err != nil {
			t.Fatalf("batch read %d: %v", i, r.Err)
		}
		r.Record.Project(projections[i])["batch-added"] = []byte("w")
	}
	if err := audit.Verify(); err != nil {
		t.Fatal(err)
	}
	if audit.Handed() == 0 {
		t.Fatal("audit observed no records")
	}
}

// TestAuditCatchesMutation proves the guard actually detects an
// offender: mutating an engine-owned record must fail Verify.
func TestAuditCatchesMutation(t *testing.T) {
	audit := NewAuditEngine(OpenMemory())
	defer audit.Close()
	if _, err := audit.Put("t", "k", map[string][]byte{"f": []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	rec, err := audit.Get("t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := audit.Verify(); err != nil {
		t.Fatalf("clean Verify failed: %v", err)
	}
	rec.Field("f")[0] = 'X' // the bug the audit exists to catch
	if err := audit.Verify(); err == nil {
		t.Fatal("Verify missed an in-place mutation")
	}
	rec.Field("f")[0] = 'o'
	if err := audit.Verify(); err != nil {
		t.Fatalf("Verify after the record was put back: %v", err)
	}
	// ForEach copies carry a map; scribbling on a value still reaches
	// the image it points into.
	audit.ForEach("t", func(_ string, rec *VersionedRecord) bool {
		rec.Fields["f"][1] = 'X'
		return true
	})
	if err := audit.Verify(); err == nil {
		t.Fatal("Verify missed a mutation through a ForEach copy")
	}
}

// TestUpdateMergesIntoNewImage pins the merge path's contract: an
// Update builds a new version whose image holds the untouched fields
// and the ones it carries, sharing no bytes with the version before it
// or with the caller's map, and never touching a published version.
// Runs on the bare store and under the audit wrapper, which would catch
// a later write editing a handed-out image in place.
func TestUpdateMergesIntoNewImage(t *testing.T) {
	engines := map[string]func() (Engine, func() error){
		"store": func() (Engine, func() error) { return openKeepingHistory(2), func() error { return nil } },
		"audit": func() (Engine, func() error) { a := NewAuditEngine(openKeepingHistory(2)); return a, a.Verify },
	}
	for name, open := range engines {
		t.Run(name, func(t *testing.T) {
			e, verify := open()
			defer e.Close()
			if _, err := e.Put("t", "k", map[string][]byte{"f0": []byte("zero"), "f1": []byte("one"), "f2": []byte("two")}); err != nil {
				t.Fatal(err)
			}
			old, err := e.Get("t", "k")
			if err != nil {
				t.Fatal(err)
			}
			ts := e.SnapshotTS()
			input := map[string][]byte{"f1": []byte("ONE")}
			if _, err := e.Update("t", "k", input); err != nil {
				t.Fatal(err)
			}
			head, err := e.Get("t", "k")
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []string{"f0", "f1", "f2"} {
				if v := head.Field(f); &v[0] == &old.Field(f)[0] || &v[0] == &input["f1"][0] {
					t.Errorf("field %s aliases the previous version or the caller's input", f)
				}
			}
			if head.Fields != nil || !bytes.Equal(head.Image(), canonicalOf(map[string][]byte{"f0": []byte("zero"), "f1": []byte("ONE"), "f2": []byte("two")})) {
				t.Errorf("merged version = Fields %v, image %q; want only the canonical image", head.Fields, head.Image())
			}
			// The caller keeps its map; scribbling on it reaches no version.
			input["f1"][0] = 'x'
			input["f0"] = []byte("injected")
			if got := string(head.Field("f1")); got != "ONE" {
				t.Errorf("head f1 = %q after the caller mutated its input, want ONE", got)
			}
			if got := string(head.Field("f0")); got != "zero" {
				t.Errorf("head f0 = %q, want zero", got)
			}
			asOf, err := e.GetAsOf("t", "k", ts)
			if err != nil {
				t.Fatal(err)
			}
			if asOf != old || string(asOf.Field("f1")) != "one" || asOf.Version != 1 {
				t.Errorf("as-of read at %d = v%d f1=%q, want the untouched v1 f1=one", ts, asOf.Version, asOf.Field("f1"))
			}
			// More merges over the shared slices must leave every
			// handed-out version as it was.
			for i := 0; i < 3; i++ {
				if _, err := e.Update("t", "k", map[string][]byte{fmt.Sprintf("f%d", i): []byte("again")}); err != nil {
					t.Fatal(err)
				}
			}
			if string(head.Field("f0")) != "zero" || string(old.Field("f2")) != "two" {
				t.Error("a later merge edited a published version in place")
			}
			if err := verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
