package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
)

// TestBundlesAfterFailedExperiment pins -bundle's failure path: the
// whole-run bundle is still written (it holds the stats and trace that
// explain the failure), the per-benchmark bundles are skipped, and the
// skip is reported.
func TestBundlesAfterFailedExperiment(t *testing.T) {
	runners := []bench.Runner{
		{ID: "ok", Title: "succeeds", Run: func(c *bench.Corpus) (*bench.Table, error) {
			tb := &bench.Table{ID: "ok", Columns: []string{"words"}}
			p, err := c.Program("compress")
			if err != nil {
				return nil, err
			}
			tb.AddRow(fmt.Sprint(len(p.Text)))
			return tb, nil
		}},
		{ID: "broken", Title: "fails", Run: func(*bench.Corpus) (*bench.Table, error) {
			return nil, errors.New("injected failure")
		}},
	}
	col := obs.NewCollector(obs.Identity{Bench: "experiments"})
	corpus := bench.NewCorpus()
	_, runErr := bench.NewEngine(corpus, bench.EngineOptions{Parallel: 1, Collector: col}).
		Run(context.Background(), runners)
	if runErr == nil {
		t.Fatal("engine reported no error for a failing runner")
	}

	dir := t.TempDir()
	var msg strings.Builder
	if err := writeBundles(&msg, dir, col, corpus, runErr); err != nil {
		t.Fatal(err)
	}
	b, err := obs.Open(filepath.Join(dir, "experiments"))
	if err != nil {
		t.Fatalf("run bundle not written: %v", err)
	}
	if b.Stats == nil || len(b.Trace) == 0 {
		t.Errorf("run bundle lacks stats or trace: stats=%v trace=%d bytes", b.Stats != nil, len(b.Trace))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("bundle directory holds %v, want only experiments/", names)
	}
	if !strings.Contains(msg.String(), "skipped the per-benchmark bundles") {
		t.Errorf("skip not reported: %q", msg.String())
	}
}
