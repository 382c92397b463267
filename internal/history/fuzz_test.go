package history

import (
	"strings"
	"testing"
)

// FuzzHistoryDecoder feeds hostile NDJSON to the history decoder: it
// must never panic, and whatever it accepts must survive Check and
// Summary without panicking either.
func FuzzHistoryDecoder(f *testing.F) {
	f.Add("{\"t\":\"h\",\"version\":1}\n" +
		"{\"t\":\"x\",\"id\":\"t1\",\"sess\":0,\"start\":1,\"commit\":10,\"out\":\"c\",\"ops\":[{\"op\":\"r\",\"tab\":\"u\",\"key\":\"x\",\"ver\":1},{\"op\":\"w\",\"tab\":\"u\",\"key\":\"x\",\"ver\":2}]}\n" +
		"{\"t\":\"x\",\"id\":\"t2\",\"sess\":1,\"start\":2,\"commit\":12,\"out\":\"a\",\"ops\":[{\"op\":\"d\",\"tab\":\"u\",\"key\":\"y\",\"ver\":3}]}\n")
	// Truncated tail.
	f.Add("{\"t\":\"h\",\"version\":1}\n{\"t\":\"x\",\"id\":\"t1\",\"out\":\"c\"}\n{\"t\":\"x\",\"id\":\"t2\",\"sta")
	// Duplicate ids, and a line of an unknown kind.
	f.Add("{\"t\":\"x\",\"id\":\"t1\",\"out\":\"c\"}\n{\"t\":\"x\",\"id\":\"t1\",\"out\":\"c\"}\n")
	f.Add("{\"t\":\"a\",\"txn\":\"t1\",\"key\":\"x\",\"ver\":1,\"w\":true}\n{\"t\":\"x\",\"id\":\"t1\",\"out\":\"c\"}\n")
	// Hostile field values.
	f.Add("{\"t\":\"x\",\"id\":\"\\u0000\\n\",\"out\":\"c\",\"ops\":[{\"op\":\"w\",\"key\":\"\",\"ver\":18446744073709551615}]}\n")
	f.Add("{\"t\":\"h\",\"version\":-1}\n")
	f.Add("{\"t\":\"zz\"}\nnull\n[]\n7\n\"str\"\n")
	f.Add(strings.Repeat("x", 200) + "\n")

	f.Fuzz(func(t *testing.T, data string) {
		recs, stats, err := Decode(strings.NewReader(data))
		if err != nil {
			return
		}
		if stats == nil {
			t.Fatal("nil stats without error")
		}
		res := Check(recs)
		if res.Txns != len(recs) {
			t.Fatalf("Txns = %d, decoded %d", res.Txns, len(recs))
		}
		_ = res.Summary()
	})
}
