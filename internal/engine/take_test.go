package engine

import (
	"context"
	"reflect"
	"testing"

	"timekeeping/internal/core"
	"timekeeping/internal/cpu"
	"timekeeping/internal/hier"
	"timekeeping/internal/trace"
)

// blockRefs returns loads of blocks 0, 1, …, n-1 (64-byte strides, block 0
// at address 0), the whole sweep repeated reps times.
func blockRefs(n, reps int) []trace.Ref {
	refs := make([]trace.Ref, 0, n*reps)
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			refs = append(refs, trace.Ref{Addr: uint64(i) * 64, Gap: 1, Kind: trace.Load})
		}
	}
	return refs
}

// TestTakeSeenSetMatchesFresh: an engine that takes over the seen set of a
// finished engine, one that ran another stream, saw block 0 and grew its
// set at least twice, steps a stream that revisits those blocks, block 0
// included, to the same snapshot, hierarchy stats and tracker metrics as
// an engine built fresh. A set left uncleared, or one that keeps block 0
// seen, classifies the revisits as capacity misses instead of cold ones.
func TestTakeSeenSetMatchesFresh(t *testing.T) {
	cfg := Config{Hier: hier.DefaultConfig(), CPU: cpu.DefaultConfig()}
	run := func(e *Engine, refs []trace.Ref) {
		t.Helper()
		if _, err := e.Run(context.Background(), &trace.SliceStream{Refs: refs}, uint64(len(refs))); err != nil {
			t.Fatal(err)
		}
	}

	donor := New(cfg)
	run(donor, blockRefs(30_000, 1))
	seen := &donor.classifier.seen
	slots, has0 := seen.Slots(), seen.At(0, 0) != nil
	if slots < 4*seenInitial || !has0 {
		t.Fatalf("donor's seen set has %d slots (block 0 %v), want at least %d and block 0",
			slots, has0, 4*seenInitial)
	}

	taker, fresh := New(cfg), New(cfg)
	taker.TakeSeenSet(donor)
	if got := taker.classifier.seen.Slots(); got != slots {
		t.Fatalf("taker's seen set has %d slots, want the donor's %d", got, slots)
	}
	if seen.Slots() != 0 {
		t.Fatal("donor kept its seen set after handing it over")
	}
	trackers := make([]*core.FastTracker, 2)
	for i, e := range []*Engine{taker, fresh} {
		trackers[i] = core.NewFastTracker(e.NumFrames())
		e.AttachTracker(trackers[i])
		run(e, blockRefs(4_000, 2))
	}
	if got, want := taker.Snapshot(), fresh.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot %+v, fresh engine %+v", got, want)
	}
	if got, want := taker.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("stats %+v, fresh engine %+v", got, want)
	}
	if !reflect.DeepEqual(trackers[0].Metrics(), trackers[1].Metrics()) {
		t.Error("tracker metrics differ from the fresh engine's")
	}
}
