package stats

import (
	"encoding/json"
	"fmt"
)

// The histogram types carry their sample counts in unexported fields, so
// plain encoding/json would serialise only the shape and silently drop the
// data. sim.Result reaches these types through core.Metrics, and its JSON
// is the API and golden-corpus form, so each histogram defines an explicit
// wire form that round-trips every field and validates shape invariants on
// decode: a corrupt histogram is rejected rather than read with empty
// counts. The disk result tier (internal/store) keeps the binary form in
// binary.go instead.

// histJSON is Hist's wire form.
type histJSON struct {
	Width   uint64   `json:"width"`
	Buckets int      `json:"buckets"`
	Counts  []uint64 `json:"counts"`
	Total   uint64   `json:"total"`
	Sum     float64  `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
}

// MarshalJSON encodes the histogram including its sample counts.
func (h *Hist) MarshalJSON() ([]byte, error) {
	return json.Marshal(histJSON{
		Width:   h.Width,
		Buckets: h.Buckets,
		Counts:  h.counts,
		Total:   h.total,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
	})
}

// UnmarshalJSON decodes a histogram, validating its shape.
func (h *Hist) UnmarshalJSON(data []byte) error {
	var w histJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Width == 0 || w.Buckets <= 0 {
		return fmt.Errorf("stats: Hist: invalid shape width=%d buckets=%d", w.Width, w.Buckets)
	}
	if len(w.Counts) != w.Buckets+1 {
		return fmt.Errorf("stats: Hist: %d counts for %d buckets", len(w.Counts), w.Buckets)
	}
	var total uint64
	for _, c := range w.Counts {
		total += c
	}
	if total != w.Total {
		return fmt.Errorf("stats: Hist: total %d != sum of counts %d", w.Total, total)
	}
	h.Width = w.Width
	h.Buckets = w.Buckets
	h.counts = w.Counts
	h.total = w.Total
	h.sum = w.Sum
	h.min = w.Min
	h.max = w.Max
	return nil
}

// diffHistJSON is DiffHist's wire form.
type diffHistJSON struct {
	MinAbs uint64   `json:"min_abs"`
	Span   int      `json:"span"`
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total"`
}

// MarshalJSON encodes the difference histogram including its sample counts.
func (d *DiffHist) MarshalJSON() ([]byte, error) {
	return json.Marshal(diffHistJSON{MinAbs: d.MinAbs, Span: d.Span, Counts: d.counts, Total: d.total})
}

// UnmarshalJSON decodes a difference histogram, validating its shape.
func (d *DiffHist) UnmarshalJSON(data []byte) error {
	var w diffHistJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.MinAbs == 0 || w.Span <= 0 {
		return fmt.Errorf("stats: DiffHist: invalid shape min_abs=%d span=%d", w.MinAbs, w.Span)
	}
	if len(w.Counts) != 2*w.Span+1 {
		return fmt.Errorf("stats: DiffHist: %d counts for span %d", len(w.Counts), w.Span)
	}
	var total uint64
	for _, c := range w.Counts {
		total += c
	}
	if total != w.Total {
		return fmt.Errorf("stats: DiffHist: total %d != sum of counts %d", w.Total, total)
	}
	d.MinAbs = w.MinAbs
	d.Span = w.Span
	d.counts = w.Counts
	d.total = w.Total
	return nil
}

// ratioHistJSON is RatioHist's wire form.
type ratioHistJSON struct {
	Span   int      `json:"span"`
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total"`
}

// MarshalJSON encodes the ratio histogram including its sample counts.
func (r *RatioHist) MarshalJSON() ([]byte, error) {
	return json.Marshal(ratioHistJSON{Span: r.Span, Counts: r.counts, Total: r.total})
}

// UnmarshalJSON decodes a ratio histogram, validating its shape.
func (r *RatioHist) UnmarshalJSON(data []byte) error {
	var w ratioHistJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Span <= 0 {
		return fmt.Errorf("stats: RatioHist: invalid span %d", w.Span)
	}
	if len(w.Counts) != 2*w.Span+1 {
		return fmt.Errorf("stats: RatioHist: %d counts for span %d", len(w.Counts), w.Span)
	}
	var total uint64
	for _, c := range w.Counts {
		total += c
	}
	if total != w.Total {
		return fmt.Errorf("stats: RatioHist: total %d != sum of counts %d", w.Total, total)
	}
	r.Span = w.Span
	r.counts = w.Counts
	r.total = w.Total
	return nil
}
