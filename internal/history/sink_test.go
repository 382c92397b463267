package history

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ycsbt/internal/obs"
)

func TestSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.ndjson")
	reg := obs.NewRegistry()
	sink, err := OpenFile(path, SinkOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	in := []*TxnRecord{
		mkTxn("t1", 1, 10, OutcomeCommit,
			Op{Kind: OpWrite, Store: "s1", Table: "u", Key: "x", Ver: 2},
			Op{Kind: OpRead, Store: "s1", Table: "u", Key: "x", Ver: 1}),
		mkTxn("t2", 2, 0, OutcomeAbort, rd("y", 1)),
	}
	for _, r := range in {
		sink.RecordTxn(r)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, dropped := sink.Stats()
	if events != 2 || dropped != 0 {
		t.Fatalf("stats = %d events, %d dropped", events, dropped)
	}

	out, stats, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lines != 3 || stats.TruncatedTail {
		t.Fatalf("stats = %+v", stats)
	}
	if len(out) != 2 {
		t.Fatalf("decoded %d records", len(out))
	}
	// The writer sorts ops (reads first, then by store/table/key).
	want := []Op{
		{Kind: OpRead, Store: "s1", Table: "u", Key: "x", Ver: 1},
		{Kind: OpWrite, Store: "s1", Table: "u", Key: "x", Ver: 2},
	}
	if !reflect.DeepEqual(out[0].Ops, want) {
		t.Fatalf("t1 ops = %+v", out[0].Ops)
	}
	if out[0].ID != "t1" || out[0].StartTS != 1 || out[0].CommitTS != 10 || !out[0].Committed() {
		t.Fatalf("t1 = %+v", out[0])
	}
	if out[1].ID != "t2" || out[1].Committed() {
		t.Fatalf("t2 = %+v", out[1])
	}
}

func TestSinkDropsAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.ndjson")
	sink, err := OpenFile(path, SinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	sink.RecordTxn(mkTxn("late", 1, 2, OutcomeCommit, rd("x", 1)))
	if err := sink.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if events, dropped := sink.Stats(); events != 0 || dropped != 1 {
		t.Fatalf("stats = %d events, %d dropped", events, dropped)
	}
}

func TestDecodeTruncatedTail(t *testing.T) {
	full := `{"t":"h","version":1}
{"t":"x","id":"t1","sess":0,"start":1,"commit":10,"out":"c","ops":[{"op":"w","key":"x","ver":2}]}
{"t":"x","id":"t2","sess":0,"start":2,"comm`
	recs, stats, err := Decode(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.TruncatedTail || stats.Lines != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(recs) != 1 || recs[0].ID != "t1" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"mid-file garbage", "{\"t\":\"h\",\"version\":1}\nnot json\n{\"t\":\"x\",\"id\":\"t1\",\"out\":\"c\"}\n", "line 2"},
		{"bad version", "{\"t\":\"h\",\"version\":99}\n", "unsupported format version"},
		{"duplicate id", "{\"t\":\"x\",\"id\":\"t1\",\"out\":\"c\"}\n{\"t\":\"x\",\"id\":\"t1\",\"out\":\"c\"}\n", "duplicate transaction id"},
		{"access line", "{\"t\":\"h\",\"version\":1}\n{\"t\":\"a\",\"txn\":\"t1\",\"key\":\"x\",\"ver\":1}\n{\"t\":\"x\",\"id\":\"t1\",\"out\":\"c\"}\n", `line 2: unknown line type "a"`},
		{"bad outcome", "{\"t\":\"x\",\"id\":\"t1\",\"out\":\"?\"}\nx\n", "unknown outcome"},
		{"bad op kind", "{\"t\":\"x\",\"id\":\"t1\",\"out\":\"c\",\"ops\":[{\"op\":\"z\"}]}\nx\n", "unknown op kind"},
		{"missing id", "{\"t\":\"x\",\"out\":\"c\"}\nx\n", "without id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Decode(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestDecodeEmptyFile(t *testing.T) {
	recs, stats, err := Decode(strings.NewReader(""))
	if err != nil || len(recs) != 0 || stats.Lines != 0 {
		t.Fatalf("recs=%v stats=%+v err=%v", recs, stats, err)
	}
}

func TestOpenFileError(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "no", "such", "dir", "h"), SinkOptions{}); err == nil {
		t.Fatal("want error for unreachable path")
	}
	if _, err := os.Stat("/"); err != nil {
		t.Fatal(err)
	}
}
