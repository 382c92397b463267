package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRejectsUnknownFigure(t *testing.T) {
	for _, fig := range []string{"1", "7", "9", "-2"} {
		var out bytes.Buffer
		err := run([]string{"-quick", "-fig", fig}, &out)
		if err == nil || !strings.Contains(err.Error(), "names no figure") {
			t.Errorf("-fig %s: err = %v, want a names-no-figure error", fig, err)
		}
		if out.Len() != 0 {
			t.Errorf("-fig %s printed before rejecting:\n%s", fig, out.String())
		}
	}
}

func TestRunOneFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick sweep")
	}
	var out bytes.Buffer
	if err := run([]string{"-quick", "-fig", "8"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "instances × threads") {
		t.Errorf("-fig 8 printed no multi-host table:\n%s", out.String())
	}
}
