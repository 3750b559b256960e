package bench

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestEngineTracing runs real corpus work under a collector's tracer and
// checks the span tree has the documented shape: one root per experiment,
// row spans with worker attribution, and corpus/pipeline spans nested
// below.
func TestEngineTracing(t *testing.T) {
	runners := []Runner{
		{ID: "t1", Title: "traced one", Run: func(c *Corpus) (*Table, error) {
			tb := &Table{ID: "t1", Columns: []string{"ratio"}}
			return tb, rowsInOrder(c, tb, 2, func(i int) ([]string, error) {
				name := []string{"compress", "li"}[i]
				img, err := c.Image(name, core.Options{Scheme: codeword.Nibble})
				if err != nil {
					return nil, err
				}
				return []string{ratio(img)}, nil
			})
		}},
		{ID: "t2", Title: "traced two", Run: func(c *Corpus) (*Table, error) {
			tb := &Table{ID: "t2", Columns: []string{"ratio"}}
			img, err := c.Image("compress", core.Options{Scheme: codeword.OneByte})
			if err != nil {
				return nil, err
			}
			tb.AddRow(ratio(img))
			return tb, nil
		}},
	}
	col := obs.NewCollector(obs.Identity{Bench: "experiments"})
	e := NewEngine(NewCorpus(), EngineOptions{Parallel: 4, Collector: col})
	if _, err := e.Run(context.Background(), runners); err != nil {
		t.Fatal(err)
	}

	spans := col.Tracer().Spans()
	byName := map[string]int{}
	roots := 0
	for _, s := range spans {
		byName[s.Name]++
		if s.Parent == 0 {
			roots++
		}
		if !s.Ended {
			t.Errorf("span %s (id %d) never ended", s.Name, s.ID)
		}
	}
	if roots != 2 {
		t.Fatalf("%d root spans, want one per experiment (2)", roots)
	}
	if byName["experiment:t1"] != 1 || byName["experiment:t2"] != 1 {
		t.Fatalf("experiment roots missing: %v", byName)
	}
	if byName["row"] != 2 {
		t.Fatalf("%d row spans, want 2 (t1's pool rows)", byName["row"])
	}
	// Three distinct (name, options) pairs were compressed; each carries
	// the pipeline phases beneath it.
	for _, want := range []string{"corpus.compress", "core.build", "dict.select"} {
		if byName[want] != 3 {
			t.Fatalf("%d %s spans, want 3 (one per compression): %v", byName[want], want, byName)
		}
	}
	if byName["corpus.generate"] != 2 {
		t.Fatalf("%d corpus.generate spans, want 2 (compress, li)", byName["corpus.generate"])
	}
}

func ratio(img *core.Image) string { return fmt.Sprintf("%.3f", img.Ratio()) }
