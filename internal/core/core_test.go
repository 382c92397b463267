package core

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"ycsbt/internal/history"
	"ycsbt/internal/properties"
)

func cewProps() *properties.Properties {
	return properties.FromMap(map[string]string{
		"workload":                  "closedeconomy",
		"db":                        "txnkv",
		"recordcount":               "100",
		"operationcount":            "1000",
		"totalcash":                 "10000",
		"threadcount":               "4",
		"readproportion":            "0.8",
		"readmodifywriteproportion": "0.2",
	})
}

func TestExecuteFullPipeline(t *testing.T) {
	var report bytes.Buffer
	out, err := Execute(context.Background(), cewProps(), RunOptions{
		Load:         true,
		Transactions: true,
		Report:       &report,
		Timeline:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Load == nil || out.Run == nil {
		t.Fatalf("phases missing: %+v", out)
	}
	if out.Final() != out.Run {
		t.Error("Final should be the run phase")
	}
	if out.Run.Validation == nil || !out.Run.Validation.Valid {
		t.Errorf("transactional pipeline broke the invariant: %+v", out.Run.Validation)
	}
	text := report.String()
	for _, want := range []string{"[TOTAL CASH], 10000", "[ANOMALY SCORE], 0", "[TX-READ]", "[TIMELINE]"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestExecuteLoadOnly(t *testing.T) {
	out, err := Execute(context.Background(), cewProps(), RunOptions{Load: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Run != nil || out.Load == nil {
		t.Fatalf("phases = %+v", out)
	}
	if out.Final() != out.Load {
		t.Error("Final should be the load phase")
	}
}

func TestExecuteValidation(t *testing.T) {
	if _, err := Execute(context.Background(), cewProps(), RunOptions{}); err == nil {
		t.Error("no phases accepted")
	}
	bad := properties.FromMap(map[string]string{"workload": "missing"})
	if _, err := Execute(context.Background(), bad, RunOptions{Load: true}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestExecuteRegistersEverything(t *testing.T) {
	// Every binding and workload combination the README advertises
	// must resolve through the registries core imports.
	for _, dbName := range []string{"memory", "kvstore", "cloudsim", "txnkv", "percolator"} {
		p := cewProps()
		p.Set("db", dbName)
		p.Set("operationcount", "50")
		p.Set("recordcount", "20")
		p.Set("totalcash", "2000")
		p.Set("cloudsim.readlatency_us", "0")
		p.Set("cloudsim.writelatency_us", "0")
		if _, err := Execute(context.Background(), p, RunOptions{Load: true, Transactions: true}); err != nil {
			t.Errorf("pipeline with db=%s: %v", dbName, err)
		}
	}
}

// scrapeOnStart is a report writer that, when Execute announces the
// transaction phase, fetches /metrics from the ops listener Execute
// announced earlier — the listener lives only as long as the call.
type scrapeOnStart struct {
	t       *testing.T
	text    strings.Builder
	metrics string
}

func (s *scrapeOnStart) Write(p []byte) (int, error) {
	s.text.Write(p)
	if strings.HasPrefix(string(p), "Starting test.") {
		_, addr, ok := strings.Cut(s.text.String(), "ops listening on ")
		if !ok {
			s.t.Error("no ops listener announced before the transaction phase")
			return len(p), nil
		}
		addr, _, _ = strings.Cut(addr, "\n")
		resp, err := http.Get(addr + "/metrics")
		if err != nil {
			s.t.Error(err)
			return len(p), nil
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		s.metrics = string(b)
	}
	return len(p), nil
}

// TestExecuteHistoryAndOps runs the pipeline with a history file and
// an ops listener: the file must certify, and while the run is on,
// /metrics must carry the client's measurement series.
func TestExecuteHistoryAndOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.ndjson")
	p := cewProps()
	p.Set("history.file", path)
	report := &scrapeOnStart{t: t}
	if _, err := Execute(context.Background(), p, RunOptions{
		Load:         true,
		Transactions: true,
		Report:       report,
		OpsAddr:      "127.0.0.1:0",
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.metrics, `ycsbt_operations_total{series="INSERT"} 100`) {
		t.Errorf("/metrics during the run lacks the load phase's INSERT series:\n%s", report.metrics)
	}
	text := report.text.String()
	if !strings.Contains(text, "history: ") || !strings.Contains(text, "0 dropped -> "+path) {
		t.Errorf("report does not account for the history file:\n%s", text)
	}
	recs, _, err := history.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res := history.Check(recs); !res.Serializable || res.Committed == 0 {
		t.Errorf("history of a txnkv CEW run: serializable=%v committed=%d cycles=%v",
			res.Serializable, res.Committed, res.Cycles)
	}
}
