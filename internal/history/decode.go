package history

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// maxLineBytes bounds one NDJSON line; longer lines are a decode
// error, not an allocation amplifier.
const maxLineBytes = 1 << 20

// DecodeStats reports what the decoder tolerated.
type DecodeStats struct {
	// Lines is the number of non-empty lines consumed.
	Lines int
	// TruncatedTail is true when the final line was malformed or
	// unterminated and was skipped — the expected shape of a file cut
	// short by a crash mid-write.
	TruncatedTail bool
}

// Decode reads an NDJSON history stream. Malformed content anywhere
// but the final line is an error; a malformed or unterminated final
// line is tolerated (crashed runs truncate mid-line) and reported in
// the stats.
func Decode(r io.Reader) ([]*TxnRecord, *DecodeStats, error) {
	stats := &DecodeStats{}
	var recs []*TxnRecord
	seen := map[string]bool{} // transaction ids

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	type pending struct {
		line []byte
		n    int
	}
	var prev *pending // one-line lookahead so only the true tail is forgiven

	process := func(p *pending, last bool) error {
		line := bytes.TrimSpace(p.line)
		if len(line) == 0 {
			return nil
		}
		stats.Lines++
		var probe struct {
			T string `json:"t"`
		}
		fail := func(format string, args ...any) error {
			if last {
				stats.TruncatedTail = true
				stats.Lines--
				return nil
			}
			return fmt.Errorf("history: line %d: %s", p.n, fmt.Sprintf(format, args...))
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return fail("%v", err)
		}
		switch probe.T {
		case "h":
			var h headerLine
			if err := json.Unmarshal(line, &h); err != nil {
				return fail("%v", err)
			}
			if h.Version != FormatVersion {
				return fmt.Errorf("history: line %d: unsupported format version %d (want %d)", p.n, h.Version, FormatVersion)
			}
		case "x":
			var x txnLine
			if err := json.Unmarshal(line, &x); err != nil {
				return fail("%v", err)
			}
			rec := x.TxnRecord
			if rec.ID == "" {
				return fail("transaction record without id")
			}
			if rec.Outcome != OutcomeCommit && rec.Outcome != OutcomeAbort {
				return fail("transaction %s: unknown outcome %q", rec.ID, rec.Outcome)
			}
			for _, op := range rec.Ops {
				if op.Kind != OpRead && op.Kind != OpWrite && op.Kind != OpDelete {
					return fail("transaction %s: unknown op kind %q", rec.ID, op.Kind)
				}
			}
			if seen[rec.ID] {
				return fmt.Errorf("history: line %d: duplicate transaction id %q", p.n, rec.ID)
			}
			seen[rec.ID] = true
			recs = append(recs, &rec)
		default:
			return fail("unknown line type %q", probe.T)
		}
		return nil
	}

	lineNo := 0
	for sc.Scan() {
		lineNo++
		cur := &pending{line: append([]byte(nil), sc.Bytes()...), n: lineNo}
		if prev != nil {
			if err := process(prev, false); err != nil {
				return nil, nil, err
			}
		}
		prev = cur
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("history: %w", err)
	}
	if prev != nil {
		if err := process(prev, true); err != nil {
			return nil, nil, err
		}
	}
	return recs, stats, nil
}

// LoadFile decodes the history file at path.
func LoadFile(path string) ([]*TxnRecord, *DecodeStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("history: %w", err)
	}
	defer f.Close()
	return Decode(f)
}
