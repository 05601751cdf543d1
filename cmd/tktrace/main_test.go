package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"timekeeping/internal/sim"
	"timekeeping/internal/trace"
	"timekeeping/internal/workload"
)

// TestTraceRoundTrip records a workload to a trace file the way
// `tktrace -gen` does, replays it through sim.Run, and checks the
// statistics match the generator-driven run exactly: the on-disk format
// must be a lossless substitute for the live stream.
func TestTraceRoundTrip(t *testing.T) {
	const seed, n = 1, 40_000
	spec := workload.MustProfile("twolf")

	opt := sim.Default()
	opt.Seed = seed
	opt.WarmupRefs = 10_000
	opt.MeasureRefs = 30_000
	opt.Track = true

	direct, err := sim.Run(context.Background(), sim.Spec{Workload: spec, Opts: opt})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "twolf.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	s := spec.Stream(seed)
	var r trace.Ref
	for i := 0; i < n; i++ {
		if !s.Next(&r) {
			t.Fatalf("generator dried up at %d", i)
		}
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	rd, err := trace.NewReader(rf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := sim.Run(context.Background(), sim.Spec{Name: path, Stream: rd, Opts: opt})
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Err(); err != nil {
		t.Fatalf("trace reader: %v", err)
	}

	if replay.CPU != direct.CPU {
		t.Errorf("CPU results differ:\n replay %+v\n direct %+v", replay.CPU, direct.CPU)
	}
	if replay.Hier != direct.Hier {
		t.Errorf("hierarchy stats differ:\n replay %+v\n direct %+v", replay.Hier, direct.Hier)
	}
	if replay.TotalRefs != direct.TotalRefs {
		t.Errorf("total refs %d != %d", replay.TotalRefs, direct.TotalRefs)
	}
	if direct.Tracker == nil || replay.Tracker == nil {
		t.Fatal("tracker missing")
	}
	if replay.Tracker.Generations != direct.Tracker.Generations ||
		replay.Tracker.ZeroLive != direct.Tracker.ZeroLive {
		t.Errorf("tracker metrics differ: replay gen=%d zl=%+v, direct gen=%d zl=%+v",
			replay.Tracker.Generations, replay.Tracker.ZeroLive,
			direct.Tracker.Generations, direct.Tracker.ZeroLive)
	}
}
