package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ycsbt/internal/client"
)

// writeProps drops a minimal CEW property file for CLI tests.
func writeProps(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "cew.properties")
	content := `recordcount=100
operationcount=500
workload=closedeconomy
totalcash=10000
readproportion=0.8
readmodifywriteproportion=0.2
requestdistribution=zipfian
threadcount=2
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunLoadAndTransactionPhases(t *testing.T) {
	props := writeProps(t)
	if err := run([]string{"-db", "memory", "-P", props, "-load", "-t"}); err != nil {
		t.Fatalf("run = %v", err)
	}
}

func TestRunTxnkvBinding(t *testing.T) {
	props := writeProps(t)
	if err := run([]string{"-db", "txnkv", "-P", props, "-threads", "4", "-load", "-t", "-timeline"}); err != nil {
		t.Fatalf("run txnkv = %v", err)
	}
}

func TestRunLoadOnly(t *testing.T) {
	props := writeProps(t)
	if err := run([]string{"-db", "memory", "-P", props, "-load"}); err != nil {
		t.Fatalf("load only = %v", err)
	}
}

func TestRunOverrides(t *testing.T) {
	props := writeProps(t)
	err := run([]string{
		"-db", "memory", "-P", props,
		"-p", "operationcount=100",
		"-p", "recordcount=50",
		"-workload", "closedeconomy",
		"-target", "100000",
		"-load", "-t",
	})
	if err != nil {
		t.Fatalf("run with overrides = %v", err)
	}
}

func TestRunMiddlewareStack(t *testing.T) {
	props := writeProps(t)
	err := run([]string{
		"-db", "memory", "-P", props,
		"-middleware", "metered",
		"-load", "-t",
	})
	if err != nil {
		t.Fatalf("run with middleware stack = %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	props := writeProps(t)
	cases := [][]string{
		{"-db", "memory", "-P", props},                           // neither -load nor -t
		{"-db", "nope", "-P", props, "-t"},                       // unknown binding
		{"-db", "memory", "-P", "/no/such/file", "-t"},           // missing props file
		{"-db", "memory", "-P", props, "-p", "badpair", "-t"},    // malformed override
		{"-workload", "nope", "-P", props, "-t"},                 // unknown workload
		{"-db", "memory", "-P", props, "-middleware", "x", "-t"}, // unknown middleware
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list = %v", err)
	}
}

// captureRun runs the client with args and returns what it printed on
// stdout.
func captureRun(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	err = run(args)
	os.Stdout = stdout
	w.Close()
	out := <-printed
	r.Close()
	if err != nil {
		t.Fatalf("run(%v) = %v", args, err)
	}
	return out
}

// TestRunStdoutSequence pins the order of the lines a run prints for
// each phase selection: the banner, the phase lines, then the Listing-3
// report of the last phase (validation first, then the overall
// figures). Only the lines named in heads are compared.
func TestRunStdoutSequence(t *testing.T) {
	props := writeProps(t)
	heads := []string{client.Version, "Command line:", "Loading workload...", "Load complete:",
		"Starting test.", "[ANOMALY SCORE]", "[OVERALL], RunTime", "[OVERALL], Throughput"}
	for _, tc := range []struct {
		phases []string
		want   []string
	}{
		{[]string{"-load"}, []string{client.Version, "Command line:", "Loading workload...",
			"[ANOMALY SCORE]", "[OVERALL], RunTime", "[OVERALL], Throughput"}},
		{[]string{"-t"}, []string{client.Version, "Command line:", "Starting test.",
			"[ANOMALY SCORE]", "[OVERALL], RunTime", "[OVERALL], Throughput"}},
		{[]string{"-load", "-t"}, []string{client.Version, "Command line:", "Loading workload...",
			"Load complete:", "Starting test.", "[ANOMALY SCORE]", "[OVERALL], RunTime", "[OVERALL], Throughput"}},
	} {
		args := append([]string{"-db", "memory", "-P", props}, tc.phases...)
		var got []string
		for _, line := range strings.Split(captureRun(t, args...), "\n") {
			for _, h := range heads {
				if strings.HasPrefix(line, h) {
					got = append(got, h)
				}
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v printed heads\n%q\nwant\n%q", tc.phases, got, tc.want)
		}
	}
}

// TestRunReportsNoBatchSeries pins the Listing-3 blocks of a core
// workload A run: READ and UPDATE, which each client thread issues one
// at a time, and no BATCH-* block, since nothing merges one thread's
// operations with another's.
func TestRunReportsNoBatchSeries(t *testing.T) {
	out := captureRun(t, "-db", "memory", "-P", filepath.Join("..", "..", "workloads", "workloada"),
		"-p", "recordcount=100", "-p", "operationcount=500", "-threads", "2", "-load", "-t")
	for _, want := range []string{"[READ], Operations", "[UPDATE], Operations"} {
		if !strings.Contains(out, want) {
			t.Errorf("the report has no %q line:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "[BATCH-") {
			t.Errorf("the report prints a batch series: %q", line)
		}
	}
}

// TestRunReportsOnlyMeasuredSeries pins that the Listing-3 report lists
// only the kinds a run measured, as YCSB's does: workload A issues no
// delete, scan or read-modify-write and aborts nothing on the memory
// binding, so none of those blocks is printed, and every block that is
// printed counts at least one operation.
func TestRunReportsOnlyMeasuredSeries(t *testing.T) {
	out := captureRun(t, "-db", "memory", "-P", filepath.Join("..", "..", "workloads", "workloada"),
		"-p", "recordcount=100", "-p", "operationcount=500", "-load", "-t")
	for _, want := range []string{"[READ], Operations", "[UPDATE], Operations", "[START], Operations", "[COMMIT], Operations"} {
		if !strings.Contains(out, want) {
			t.Errorf("the report has no %q line:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		for _, absent := range []string{"[DELETE]", "[SCAN]", "[ABORT]", "[READ-MODIFY-WRITE]"} {
			if strings.HasPrefix(line, absent) {
				t.Errorf("the report prints an unmeasured series: %q", line)
			}
		}
		if strings.HasSuffix(line, "], Operations, 0") {
			t.Errorf("the report prints a zero-operation block: %q", line)
		}
	}
}
