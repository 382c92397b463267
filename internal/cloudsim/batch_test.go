package cloudsim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

// zeroLatency returns a store with no simulated latency so tests only
// observe the request accounting.
func zeroLatency() *Store {
	return New(Config{Name: "test"})
}

// TestBatchChargedAsOneRequest checks the batch economics: a BatchApply
// costs one write request and a BatchGet one read request, no matter
// how many keys move.
func TestBatchChargedAsOneRequest(t *testing.T) {
	ctx := context.Background()
	s := zeroLatency()
	defer s.Close()

	var muts []kvstore.Mutation
	for i := 0; i < 8; i++ {
		muts = append(muts, kvstore.Mutation{Op: kvstore.MutPut, Table: "t", Key: fmt.Sprintf("k%d", i),
			Fields: db.Record{"f": []byte("v")}, Expect: kvstore.AnyVersion})
	}
	res, err := s.BatchApply(ctx, muts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	reads, writes, _ := s.Stats()
	if reads != 0 || writes != 1 {
		t.Fatalf("after 8-put batch: reads=%d writes=%d, want 0/1", reads, writes)
	}

	var reqs []kvstore.GetReq
	for i := 0; i < 8; i++ {
		reqs = append(reqs, kvstore.GetReq{Table: "t", Key: fmt.Sprintf("k%d", i)})
	}
	got, err := s.BatchGet(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Err != nil || string(r.Record.Project(nil)["f"]) != "v" {
			t.Fatalf("read %d: %+v", i, r)
		}
	}
	reads, writes, _ = s.Stats()
	if reads != 1 || writes != 1 {
		t.Fatalf("after 8-read batch: reads=%d writes=%d, want 1/1", reads, writes)
	}
}

// TestBatchUpdateChargesPreRead checks what an update costs through the
// binding: a merge-update pays its pre-read and its put (two requests
// a key), a blind update one put.
func TestBatchUpdateChargesPreRead(t *testing.T) {
	ctx := context.Background()
	b := NewBinding(zeroLatency())
	defer b.store.Close()
	for i := 0; i < 4; i++ {
		if err := b.Insert(ctx, "t", fmt.Sprintf("k%d", i), db.Record{"f": []byte("v"), "keep": []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	update := func(what string) {
		t.Helper()
		for i := 0; i < 4; i++ {
			if err := b.Update(ctx, "t", fmt.Sprintf("k%d", i), db.Record{"f": []byte("v2")}); err != nil {
				t.Fatalf("%s %d: %v", what, i, err)
			}
		}
	}
	r0, w0, _ := b.store.Stats()
	update("update")
	r1, w1, _ := b.store.Stats()
	if r1-r0 != 4 || w1-w0 != 4 {
		t.Fatalf("merge-updates: +%d reads +%d writes, want 4/4", r1-r0, w1-w0)
	}
	// The merge preserved untouched fields.
	rec, err := b.Read(ctx, "t", "k0", nil)
	if err != nil || string(rec["f"]) != "v2" || string(rec["keep"]) != "x" {
		t.Fatalf("merged record: %v %v", rec, err)
	}

	b.BlindUpdates = true
	r1, w1, _ = b.store.Stats()
	update("blind update")
	r2, w2, _ := b.store.Stats()
	if r2-r1 != 0 || w2-w1 != 4 {
		t.Fatalf("blind updates: +%d reads +%d writes, want 0/4", r2-r1, w2-w1)
	}
}

// TestBatchPerItemErrors checks misses surface per item, not as
// whole-batch failures.
func TestBatchPerItemErrors(t *testing.T) {
	ctx := context.Background()
	s := zeroLatency()
	defer s.Close()
	if _, err := s.Put(ctx, "t", "a", db.Record{"f": []byte("v")}, kvstore.AnyVersion); err != nil {
		t.Fatal(err)
	}
	got, err := s.BatchGet(ctx, []kvstore.GetReq{{Table: "t", Key: "a"}, {Table: "t", Key: "missing"}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Err != nil {
		t.Fatalf("read 0: %v", got[0].Err)
	}
	if !errors.Is(got[1].Err, db.ErrNotFound) {
		t.Fatalf("read 1: %v", got[1].Err)
	}
	res, err := s.BatchApply(ctx, []kvstore.Mutation{
		{Op: kvstore.MutUpdate, Table: "t", Key: "missing", Fields: db.Record{"f": []byte("x")}},
		{Op: kvstore.MutPut, Table: "t", Key: "b", Fields: db.Record{"f": []byte("v")}, Expect: kvstore.AnyVersion},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, db.ErrNotFound) {
		t.Fatalf("write 0: %v", res[0].Err)
	}
	if res[1].Err != nil {
		t.Fatalf("write 1: %v", res[1].Err)
	}
}
