package engine_test

import (
	"context"
	"testing"

	"timekeeping/internal/core"
	"timekeeping/internal/cpu"
	"timekeeping/internal/engine"
	"timekeeping/internal/hier"
	"timekeeping/internal/prefetch"
	"timekeeping/internal/workload"
)

// TestPrefetchRunAllocs is the allocation gate for the prefetchers: once an
// engine with a prefetcher attached is warm, a 100K-reference Run makes
// fewer than 100 heap allocations. Prediction records, timers, the request
// queue, the Due buffer and pending fills all reuse storage sized during
// warm-up, so steady-state simulation allocates nothing per reference. The
// bound is a count, not a time, so it holds on any machine.
func TestPrefetchRunAllocs(t *testing.T) {
	const refs = 100_000
	for _, pf := range []struct {
		name   string
		attach func(*engine.Engine)
	}{
		{"timekeeping", func(e *engine.Engine) {
			e.AttachTimekeeping(prefetch.NewTimekeeping(prefetch.DefaultConfig(),
				core.NewCorrTable(core.DefaultCorrConfig()), e.L1()))
		}},
		{"dbcp", func(e *engine.Engine) {
			e.AttachDBCP(prefetch.NewDBCP(prefetch.DefaultConfig(), prefetch.DBCPEntries, e.L1()))
		}},
		{"nextline", func(e *engine.Engine) {
			e.AttachNextLine(prefetch.NewNextLine(prefetch.DefaultConfig(), e.L1()))
		}},
	} {
		t.Run(pf.name, func(t *testing.T) {
			e := engine.New(engine.Config{Hier: hier.DefaultConfig(), CPU: cpu.DefaultConfig()})
			pf.attach(e)
			spec := workload.MustProfile("gcc")
			s := spec.Stream(1)
			ctx := context.Background()
			if _, err := e.Run(ctx, s, refs); err != nil {
				t.Fatal(err)
			}
			if e.Stats().Prefetches == 0 {
				t.Fatal("warm-up issued no prefetches; the gate would measure nothing")
			}
			allocs := testing.AllocsPerRun(2, func() {
				if _, err := e.Run(ctx, s, refs); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f heap allocations per warm %d-reference Run", allocs, refs)
			if allocs >= 100 {
				t.Errorf("a warm %d-reference Run made %.0f heap allocations, want < 100", refs, allocs)
			}
		})
	}
}
