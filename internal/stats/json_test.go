package stats

import (
	"encoding"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// codecs are the histograms' two wire forms: JSON, the API and golden
// form, and the binary form the disk result tier keeps. Every round trip
// runs through both.
var codecs = []struct {
	name      string
	marshal   func(v any) ([]byte, error)
	unmarshal func(data []byte, v any) error
}{
	{"json", json.Marshal, json.Unmarshal},
	{"binary",
		func(v any) ([]byte, error) { return v.(encoding.BinaryMarshaler).MarshalBinary() },
		func(data []byte, v any) error { return v.(encoding.BinaryUnmarshaler).UnmarshalBinary(data) }},
}

// sameCounts fails unless got and want hold the same count in every
// bucket.
func sameCounts(t *testing.T, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// rejectsCorruptBinary checks that decode refuses every strict prefix of
// the valid binary form good, and good followed by a trailing byte.
func rejectsCorruptBinary(t *testing.T, good []byte, decode func([]byte) error) {
	t.Helper()
	if err := decode(good); err != nil {
		t.Fatalf("valid binary form refused: %v", err)
	}
	for n := 0; n < len(good); n++ {
		if decode(good[:n]) == nil {
			t.Errorf("binary form truncated to %d of %d bytes accepted", n, len(good))
		}
	}
	if decode(append(good[:len(good):len(good)], 0)) == nil {
		t.Error("binary form with a trailing byte accepted")
	}
}

func TestHistJSONRoundTrip(t *testing.T) {
	h := NewHist(100, 10)
	for _, v := range []uint64{0, 5, 99, 100, 101, 950, 5000, 12345} {
		h.Add(v)
	}
	// A count above 127 takes more than one byte in the binary form.
	for i := 0; i < 300; i++ {
		h.Add(420)
	}
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			blob, err := c.marshal(h)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got Hist
			if err := c.unmarshal(blob, &got); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if got.Total() != h.Total() || got.Mean() != h.Mean() || got.Min() != h.Min() || got.Max() != h.Max() {
				t.Fatalf("summary drift: got total=%d mean=%v min=%d max=%d, want total=%d mean=%v min=%d max=%d",
					got.Total(), got.Mean(), got.Min(), got.Max(), h.Total(), h.Mean(), h.Min(), h.Max())
			}
			for i := 0; i <= h.Buckets; i++ {
				if got.Count(i) != h.Count(i) {
					t.Fatalf("bucket %d: got %d want %d", i, got.Count(i), h.Count(i))
				}
			}
			// The reloaded histogram must stay usable for further accumulation.
			got.Add(42)
			if got.Total() != h.Total()+1 {
				t.Fatalf("post-reload Add: total %d", got.Total())
			}
		})
	}
}

func TestHistJSONEmpty(t *testing.T) {
	h := NewHist(100, 4)
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			blob, err := c.marshal(h)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got Hist
			if err := c.unmarshal(blob, &got); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			// min must survive as MaxUint64 so the first Add still sets it.
			if got.min != math.MaxUint64 || got.Min() != 0 || got.Mean() != 0 {
				t.Fatalf("empty hist drift: min=%d (raw %d) mean=%v", got.Min(), got.min, got.Mean())
			}
			sameCounts(t, got.counts, h.counts)
			got.Add(7)
			if got.Min() != 7 || got.Max() != 7 {
				t.Fatalf("first Add after reload: min=%d max=%d", got.Min(), got.Max())
			}
		})
	}
}

func TestHistJSONRejectsCorruptShape(t *testing.T) {
	cases := map[string]string{
		"zero width":     `{"width":0,"buckets":4,"counts":[0,0,0,0,0],"total":0}`,
		"counts too few": `{"width":100,"buckets":4,"counts":[0,0],"total":0}`,
		"total mismatch": `{"width":100,"buckets":4,"counts":[1,0,0,0,0],"total":5}`,
	}
	for name, blob := range cases {
		var h Hist
		if err := json.Unmarshal([]byte(blob), &h); err == nil {
			t.Errorf("%s: corrupt histogram accepted", name)
		}
	}

	// The binary form implies the number of counts from the bucket count,
	// so a short count list shows as truncation or as a bucket count
	// beyond the bytes left, which must fail before anything is allocated.
	enc := func(width, buckets uint64, counts []uint64, total uint64) []byte {
		b := binary.AppendUvarint(nil, width)
		b = binary.AppendUvarint(b, buckets)
		b = appendCounts(b, counts)
		b = binary.AppendUvarint(b, total)
		b = binary.LittleEndian.AppendUint64(b, 0)
		b = binary.AppendUvarint(b, math.MaxUint64)
		return binary.AppendUvarint(b, 0)
	}
	binCases := map[string][]byte{
		"zero width":          enc(0, 4, make([]uint64, 5), 0),
		"zero buckets":        enc(100, 0, []uint64{0}, 0),
		"total mismatch":      enc(100, 4, []uint64{1, 0, 0, 0, 0}, 5),
		"buckets beyond data": enc(100, 1<<40, nil, 0),
	}
	for name, blob := range binCases {
		var h Hist
		if err := h.UnmarshalBinary(blob); err == nil {
			t.Errorf("binary %s: corrupt histogram accepted", name)
		}
	}
	h := NewHist(100, 4)
	h.Add(150)
	h.Add(1 << 20)
	good, err := h.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	rejectsCorruptBinary(t, good, func(b []byte) error { return new(Hist).UnmarshalBinary(b) })
}

func TestDiffHistJSONRoundTrip(t *testing.T) {
	d := NewDiffHist(16, 10)
	pairs := [][2]uint64{{100, 100}, {100, 110}, {500, 100}, {16, 48}, {0, 1 << 20}}
	for _, p := range pairs {
		d.Add(p[0], p[1])
	}
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			blob, err := c.marshal(d)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got DiffHist
			if err := c.unmarshal(blob, &got); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if got.Total() != d.Total() || got.CenterFrac() != d.CenterFrac() {
				t.Fatalf("drift: total %d/%d centerfrac %v/%v", got.Total(), d.Total(), got.CenterFrac(), d.CenterFrac())
			}
			for i := 0; i < d.Buckets(); i++ {
				if got.Percent(i) != d.Percent(i) {
					t.Fatalf("bucket %d percent drift", i)
				}
			}
			sameCounts(t, got.counts, d.counts)
		})
	}

	var bad DiffHist
	if err := json.Unmarshal([]byte(`{"min_abs":16,"span":10,"counts":[1],"total":1}`), &bad); err == nil {
		t.Fatal("corrupt diff histogram accepted")
	}
	if err := bad.UnmarshalBinary([]byte{16, 0, 0, 0}); err == nil {
		t.Fatal("binary diff histogram with span 0 accepted")
	}
	good, err := d.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	rejectsCorruptBinary(t, good, func(b []byte) error { return new(DiffHist).UnmarshalBinary(b) })
}

func TestRatioHistJSONRoundTrip(t *testing.T) {
	r := NewRatioHist(10)
	pairs := [][2]uint64{{100, 100}, {400, 100}, {100, 400}, {0, 0}, {7, 0}, {0, 7}}
	for _, p := range pairs {
		r.Add(p[0], p[1])
	}
	for _, c := range codecs {
		t.Run(c.name, func(t *testing.T) {
			blob, err := c.marshal(r)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got RatioHist
			if err := c.unmarshal(blob, &got); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if got.Total() != r.Total() {
				t.Fatalf("total drift: %d != %d", got.Total(), r.Total())
			}
			gc, rc := got.Cumulative(), r.Cumulative()
			for i := range rc {
				if gc[i] != rc[i] {
					t.Fatalf("cumulative[%d] drift: %v != %v", i, gc[i], rc[i])
				}
			}
			if got.FracWithin(2) != r.FracWithin(2) {
				t.Fatal("FracWithin drift")
			}
			sameCounts(t, got.counts, r.counts)
		})
	}

	var bad RatioHist
	if err := json.Unmarshal([]byte(`{"span":10,"counts":[0,0],"total":0}`), &bad); err == nil {
		t.Fatal("corrupt ratio histogram accepted")
	}
	if err := bad.UnmarshalBinary([]byte{0, 0, 0}); err == nil {
		t.Fatal("binary ratio histogram with span 0 accepted")
	}
	good, err := r.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	rejectsCorruptBinary(t, good, func(b []byte) error { return new(RatioHist).UnmarshalBinary(b) })
}
