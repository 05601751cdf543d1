package core

import (
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"

	"timekeeping/internal/classify"
	"timekeeping/internal/hier"
	"timekeeping/internal/stats"
)

// trackedMetrics runs a small synthetic access pattern through a Tracker so
// every Metrics field — including the unexported decay tallies — is
// populated.
func trackedMetrics(t *testing.T) *Metrics {
	t.Helper()
	tr := NewTracker(4)
	now := uint64(0)
	access := func(frame int, block uint64, hit bool, kind classify.MissKind) {
		now += 37
		ev := &hier.AccessEvent{Now: now, Frame: frame, Block: block, Hit: hit, MissKind: kind}
		if !hit {
			ev.Victim.Valid = true
		}
		tr.OnAccess(ev)
	}
	for round := 0; round < 8; round++ {
		for b := uint64(0); b < 8; b++ {
			frame := int(b % 4)
			access(frame, b, false, classify.Conflict)
			access(frame, b, true, classify.Hit)
			access(frame, b, true, classify.Hit)
		}
	}
	m := tr.Metrics()
	if m.Generations == 0 || m.Live.Total() == 0 {
		t.Fatal("synthetic pattern produced no generations")
	}
	return m
}

// codecs are Metrics' two wire forms: JSON, the API and golden form, and
// the binary form the disk result tier keeps. Every round trip runs
// through both.
var codecs = []struct {
	name      string
	marshal   func(m *Metrics) ([]byte, error)
	unmarshal func(data []byte, m *Metrics) error
}{
	{"json", func(m *Metrics) ([]byte, error) { return json.Marshal(m) },
		func(data []byte, m *Metrics) error { return json.Unmarshal(data, m) }},
	{"binary", (*Metrics).MarshalBinary,
		func(data []byte, m *Metrics) error { return m.UnmarshalBinary(data) }},
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	m := trackedMetrics(t)

	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			blob, err := c.marshal(m)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got Metrics
			if err := c.unmarshal(blob, &got); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}

			if got.Generations != m.Generations {
				t.Fatalf("generations drift: %d != %d", got.Generations, m.Generations)
			}
			if got.Live.Mean() != m.Live.Mean() || got.Dead.Mean() != m.Dead.Mean() ||
				got.AccInt.Total() != m.AccInt.Total() || got.Reload.Total() != m.Reload.Total() {
				t.Fatal("histogram drift after round trip")
			}
			for _, k := range []classify.MissKind{classify.Conflict, classify.Capacity} {
				if got.DeadByKind[k].Total() != m.DeadByKind[k].Total() {
					t.Fatalf("DeadByKind[%v] drift", k)
				}
				if got.ReloadByKind[k].Total() != m.ReloadByKind[k].Total() {
					t.Fatalf("ReloadByKind[%v] drift", k)
				}
			}
			if got.ZeroLive != m.ZeroLive || got.LivePred != m.LivePred {
				t.Fatal("predictor tally drift")
			}
			// The decay tallies live in unexported fields; DecayAccuracy panics on
			// a Metrics whose decay slice was dropped in transit.
			for i := range DecayThresholds {
				ga, gc := got.DecayAccuracy(i)
				wa, wc := m.DecayAccuracy(i)
				if ga != wa || gc != wc {
					t.Fatalf("DecayAccuracy(%d) drift: got %v/%v want %v/%v", i, ga, gc, wa, wc)
				}
			}
			if got.LiveDiff.CenterFrac() != m.LiveDiff.CenterFrac() || got.LiveRatio.Total() != m.LiveRatio.Total() {
				t.Fatal("live-time variability drift")
			}
			// Every bucket of every histogram, and every unexported field,
			// survives the trip.
			if !reflect.DeepEqual(&got, m) {
				t.Fatal("metrics differ after round trip")
			}

			// A reloaded Metrics must merge like a fresh one (suite aggregation).
			agg := NewMetrics()
			agg.Merge(&got)
			if agg.Generations != m.Generations {
				t.Fatalf("merge after reload: %d generations, want %d", agg.Generations, m.Generations)
			}
		})
	}
}

func TestMetricsJSONRejectsWrongDecayShape(t *testing.T) {
	m := trackedMetrics(t)
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatalf("reshape: %v", err)
	}
	raw["decay"] = json.RawMessage(`[{"made":1,"correct":1}]`)
	blob, err = json.Marshal(raw)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	var got Metrics
	if err := json.Unmarshal(blob, &got); err == nil {
		t.Fatal("metrics with truncated decay tallies accepted")
	}

	decode := func(b []byte) error { return new(Metrics).UnmarshalBinary(b) }
	good, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := decode(good); err != nil {
		t.Fatalf("valid binary form refused: %v", err)
	}
	for n := 0; n < len(good); n++ {
		if decode(good[:n]) == nil {
			t.Fatalf("binary form truncated to %d of %d bytes accepted", n, len(good))
		}
	}
	if decode(append(good[:len(good):len(good)], 0)) == nil {
		t.Fatal("binary form with a trailing byte accepted")
	}

	short := *m
	short.decay = short.decay[:1]
	if blob, err = short.MarshalBinary(); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if decode(blob) == nil {
		t.Fatal("binary metrics with truncated decay tallies accepted")
	}

	// DeadByKind's entries follow the generation count and the four plot
	// histograms: its entry count, then Conflict's kind and histogram,
	// then Capacity's kind. Rewrite that last kind.
	prefix := binary.AppendUvarint(nil, m.Generations)
	for _, h := range []*stats.Hist{m.Live, m.Dead, m.AccInt, m.Reload} {
		if prefix, err = appendPart(prefix, h); err != nil {
			t.Fatalf("marshal: %v", err)
		}
	}
	conflict, err := appendPart(nil, m.DeadByKind[classify.Conflict])
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	at := len(prefix) + 2 + len(conflict)
	if good[at] != byte(classify.Capacity) {
		t.Fatalf("byte %d is %d, want the Capacity kind", at, good[at])
	}
	for name, kind := range map[string]byte{"duplicate": byte(classify.Conflict), "invalid": byte(classify.NumKinds)} {
		bad := append([]byte(nil), good...)
		bad[at] = kind
		if decode(bad) == nil {
			t.Errorf("binary metrics with a %s miss kind accepted", name)
		}
	}
}
