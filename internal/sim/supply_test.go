package sim_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"timekeeping/internal/cpu"
	"timekeeping/internal/engine"
	"timekeeping/internal/hier"
	"timekeeping/internal/oracle"
	"timekeeping/internal/sim"
	"timekeeping/internal/workload"
)

// TestSupplyDivergenceIsRunPhaseError: a lockstep divergence raised while
// a long call steps its references, whose stream a second goroutine
// reads, still becomes runPhase's error, as it does under TK_AUDIT, and
// that goroutine is gone when runPhase returns. The auditor models an L1
// a quarter the engine's size, so the two disagree a few references in.
// A long call starts its producer only when a P is free for it, so the
// test runs with at least two.
func TestSupplyDivergenceIsRunPhaseError(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	cfg := engine.Config{Hier: hier.DefaultConfig(), CPU: cpu.DefaultConfig()}
	l1 := cfg.Hier.L1
	l1.Bytes /= 4
	e := engine.New(cfg)
	e.SetAuditor(oracle.NewAuditor(oracle.Config{L1: l1, L2: cfg.Hier.L2}))
	start := runtime.NumGoroutine()
	spec := workload.MustProfile("gcc")
	const n = 100_000
	res, err := sim.RunPhase(context.Background(), e, spec.Stream(1), n)
	var d *oracle.Divergence
	if !errors.As(err, &d) {
		t.Fatalf("err = %v, want an *oracle.Divergence", err)
	}
	if res.Refs >= n {
		t.Fatalf("the divergence ended the call after %d of its %d references", res.Refs, n)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before it", runtime.NumGoroutine(), start)
		}
	}
}
