package httpkv

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"ycsbt/internal/cluster"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
)

// TestRESTAndFramesAnswerAlike drives each op once over REST and once
// as a one-op request frame at the same cluster node and asserts both
// answer with the same status and version, 410 hints included: both
// planes reach the engine through kvwire.Core.ExecBatchInto. Each plane
// works on a key of its own, seeded alike.
func TestRESTAndFramesAnswerAlike(t *testing.T) {
	a, b, m := startPair(t, openTestStore(t), openTestStore(t))
	ep := kvwire.NewEndpoint(a.wireAddr, 0)
	defer ep.Close()
	ctx := context.Background()
	const body = `{"fields":{"f":"eA=="}}`
	fields := map[string][]byte{"f": []byte("x")}

	for _, tc := range []struct {
		name    string
		method  string
		cond    string // If-Match version, "*" for If-None-Match, "" for none
		seed    bool   // the key holds version 1 before the op
		foreign bool   // the key is the other node's
		want    int
		wantVer uint64
	}{
		{name: "createonly", method: http.MethodPut, cond: "*", seed: true, want: 412},
		{name: "cas", method: http.MethodPut, cond: "1", seed: true, want: 200, wantVer: 2},
		{name: "casstale", method: http.MethodPut, cond: "7", seed: true, want: 412},
		{name: "get", method: http.MethodGet, seed: true, want: 200, wantVer: 1},
		{name: "getmissing", method: http.MethodGet, want: 404},
		{name: "patchmissing", method: http.MethodPatch, want: 404},
		{name: "deletestale", method: http.MethodDelete, cond: "7", seed: true, want: 412},
		{name: "getforeign", method: http.MethodGet, foreign: true, want: 410},
		{name: "putforeign", method: http.MethodPut, foreign: true, want: 410},
	} {
		t.Run(tc.name, func(t *testing.T) {
			owner := a.URL
			if tc.foreign {
				owner = b.URL
			}
			keys := [2]string{keyOwnedBy(t, m, owner, tc.name+"-rest-"), keyOwnedBy(t, m, owner, tc.name+"-frame-")}
			if tc.seed {
				for _, k := range keys {
					if _, err := a.store.PutIfVersion("t", k, fields, kvstore.MustNotExist); err != nil {
						t.Fatal(err)
					}
				}
			}

			// REST.
			var rd io.Reader
			if tc.method == http.MethodPut || tc.method == http.MethodPatch {
				rd = strings.NewReader(body)
			}
			req, err := http.NewRequest(tc.method, a.URL+"/v1/t/"+keys[0], rd)
			if err != nil {
				t.Fatal(err)
			}
			switch tc.cond {
			case "":
			case "*":
				req.Header.Set("If-None-Match", "*")
			default:
				req.Header.Set("If-Match", tc.cond)
			}
			resp, err := a.hc.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var restVer uint64
			if etag := resp.Header.Get("ETag"); etag != "" {
				if restVer, err = strconv.ParseUint(etag, 10, 64); err != nil {
					t.Fatalf("ETag %q: %v", etag, err)
				}
			}

			// One-op frame.
			op := kvwire.Op{Table: "t", Key: keys[1], Expect: kvstore.AnyVersion}
			switch tc.cond {
			case "":
			case "*":
				op.Expect = kvstore.MustNotExist
			default:
				op.Expect, _ = strconv.ParseUint(tc.cond, 10, 64)
			}
			switch tc.method {
			case http.MethodGet:
				op.Kind = kvwire.KindGet
			case http.MethodPut:
				op.Kind, op.Fields = kvwire.KindPut, fields
			case http.MethodPatch:
				op.Kind, op.Fields = kvwire.KindPatch, fields
			case http.MethodDelete:
				op.Kind = kvwire.KindDelete
			}
			res, err := ep.Exec(ctx, []kvwire.Op{op})
			if err != nil {
				t.Fatal(err)
			}
			fr := res[0]
			var frameVer uint64
			if fr.HasVersion {
				frameVer = fr.Version
			}

			if resp.StatusCode != tc.want || fr.Status != tc.want {
				t.Fatalf("status: REST %d (%s), frame %d (%s); want %d", resp.StatusCode, raw, fr.Status, fr.Err, tc.want)
			}
			if restVer != frameVer || restVer != tc.wantVer {
				t.Errorf("version: REST %d, frame %d; want %d", restVer, frameVer, tc.wantVer)
			}
			switch tc.want {
			case http.StatusGone:
				restOwner := resp.Header.Get(cluster.HeaderOwner)
				restMapVer, _ := strconv.ParseInt(resp.Header.Get(cluster.HeaderMapVersion), 10, 64)
				if restOwner != fr.Owner || restMapVer != fr.MapVersion || fr.Owner != b.URL || fr.MapVersion != m.Version {
					t.Errorf("410 hints: REST owner %q map v%d, frame owner %q map v%d; want %q v%d",
						restOwner, restMapVer, fr.Owner, fr.MapVersion, b.URL, m.Version)
				}
			case http.StatusOK:
				if tc.method != http.MethodGet {
					break
				}
				stored, err := a.store.Get("t", keys[0])
				if err != nil {
					t.Fatal(err)
				}
				var got wireRecord
				if err := json.Unmarshal(raw, &got); err != nil {
					t.Fatalf("GET body %s: %v", raw, err)
				}
				if got.CommitTS == 0 || got.CommitTS != stored.CommitTS || got.Version != stored.Version {
					t.Errorf("GET body version %d commit_ts %d, stored %d at %d", got.Version, got.CommitTS, stored.Version, stored.CommitTS)
				}
				if string(got.Fields["f"]) != "x" || string(fr.Fields["f"]) != "x" {
					t.Errorf("fields: REST %q, frame %q", got.Fields["f"], fr.Fields["f"])
				}
			}
		})
	}
}
