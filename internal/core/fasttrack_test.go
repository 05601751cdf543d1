package core

import (
	"math/rand"
	"reflect"
	"testing"

	"timekeeping/internal/classify"
	"timekeeping/internal/hier"
)

// TestFastTrackerMatchesTracker drives both trackers with identical
// random access streams and requires identical metrics, including across
// mid-stream Reset and SetRecording transitions.
func TestFastTrackerMatchesTracker(t *testing.T) {
	const frames = 64
	rng := rand.New(rand.NewSource(7))

	ref := NewTracker(frames)
	fast := NewFastTracker(frames)

	now := uint64(0)
	kinds := []classify.MissKind{classify.Cold, classify.Conflict, classify.Capacity, classify.Unclassified}
	for i := 0; i < 200000; i++ {
		now += uint64(rng.Intn(200))
		frame := rng.Intn(frames)
		block := uint64(rng.Intn(512)) * 64
		hit := rng.Intn(3) > 0
		kind := kinds[rng.Intn(len(kinds))]
		victimValid := rng.Intn(4) > 0

		ev := hier.AccessEvent{Now: now, Frame: frame, Block: block, Hit: hit, MissKind: kind}
		ev.Victim.Valid = victimValid
		ref.OnAccess(&ev)
		fast.Observe(frame, now, block, hit, kind, victimValid)

		switch i {
		case 50000:
			ref.Reset()
			fast.Reset()
		case 100000:
			ref.SetRecording(false)
			fast.SetRecording(false)
		case 150000:
			ref.SetRecording(true)
			fast.SetRecording(true)
		}
	}

	if !reflect.DeepEqual(ref.Metrics(), fast.Metrics()) {
		t.Fatalf("metrics diverge:\nref:  %+v\nfast: %+v", ref.Metrics(), fast.Metrics())
	}
}
