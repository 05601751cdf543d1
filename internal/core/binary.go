package core

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"timekeeping/internal/classify"
	"timekeeping/internal/stats"
)

// Metrics also has a compact binary form, which the disk result tier
// (internal/store) keeps in place of its JSON. Fields follow the struct's
// order. Each histogram is length-prefixed (length 0 for a nil one) and
// holds its stats binary form; each by-kind map is its entry count, then
// (kind, histogram) pairs in kind order, and an empty map decodes as nil;
// each tally is its three counts; the decay tallies are their count, then
// (made, correct) pairs. Integers are uvarints. Decoding checks what
// UnmarshalJSON checks — one decay tally per DecayThresholds entry — and
// also that every miss kind is valid and appears once, and that the input
// is neither truncated nor followed by trailing bytes.

var errTruncated = errors.New("truncated input")

// reader reads a binary form front to back; its first error sticks, and
// every read after it returns zero.
type reader struct {
	b   []byte
	err error
}

// uvarint reads one unsigned varint.
func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errTruncated
		if n < 0 {
			r.err = errors.New("varint overflows 64 bits")
		}
		return 0
	}
	r.b = r.b[n:]
	return v
}

// part reads a length-prefixed part, checking its length against the
// bytes left.
func (r *reader) part() []byte {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = errTruncated
	}
	if r.err != nil {
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// tally reads a BinaryPredictionTally.
func (r *reader) tally() stats.BinaryPredictionTally {
	return stats.BinaryPredictionTally{Predictions: r.uvarint(), Correct: r.uvarint(), Events: r.uvarint()}
}

// byKind reads a by-kind histogram map.
func (r *reader) byKind() map[classify.MissKind]*stats.Hist {
	n := r.uvarint()
	if r.err == nil && n > uint64(classify.NumKinds) {
		r.err = fmt.Errorf("%d miss kinds, but only %d exist", n, classify.NumKinds)
	}
	if r.err != nil || n == 0 {
		return nil
	}
	out := make(map[classify.MissKind]*stats.Hist, n)
	for i := uint64(0); i < n; i++ {
		k := r.uvarint()
		if r.err == nil && k >= uint64(classify.NumKinds) {
			r.err = fmt.Errorf("invalid miss kind %d", k)
		}
		if _, dup := out[classify.MissKind(k)]; r.err == nil && dup {
			r.err = fmt.Errorf("miss kind %v appears twice", classify.MissKind(k))
		}
		if r.err != nil {
			return nil
		}
		out[classify.MissKind(k)] = readPart[stats.Hist](r)
	}
	return out
}

// readPart decodes a length-prefixed histogram; length 0 is nil.
func readPart[T any, P interface {
	*T
	encoding.BinaryUnmarshaler
}](r *reader) P {
	data := r.part()
	if r.err != nil || len(data) == 0 {
		return nil
	}
	p := P(new(T))
	if err := p.UnmarshalBinary(data); err != nil {
		r.err = err
		return nil
	}
	return p
}

// appendPart appends a histogram's binary form with its length; a nil
// histogram is length 0.
func appendPart[P interface {
	comparable
	encoding.BinaryMarshaler
}](b []byte, p P) ([]byte, error) {
	var none P
	if p == none {
		return append(b, 0), nil
	}
	data, err := p.MarshalBinary()
	if err != nil {
		return nil, err
	}
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...), nil
}

// appendTally appends a BinaryPredictionTally.
func appendTally(b []byte, t stats.BinaryPredictionTally) []byte {
	b = binary.AppendUvarint(b, t.Predictions)
	b = binary.AppendUvarint(b, t.Correct)
	return binary.AppendUvarint(b, t.Events)
}

// MarshalBinary encodes the metrics including the decay tallies.
func (m *Metrics) MarshalBinary() ([]byte, error) {
	var err error
	b := binary.AppendUvarint(nil, m.Generations)
	for _, h := range []*stats.Hist{m.Live, m.Dead, m.AccInt, m.Reload} {
		if b, err = appendPart(b, h); err != nil {
			return nil, err
		}
	}
	for _, byKind := range []map[classify.MissKind]*stats.Hist{m.DeadByKind, m.ReloadByKind} {
		kinds := make([]classify.MissKind, 0, len(byKind))
		for k := range byKind {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		b = binary.AppendUvarint(b, uint64(len(kinds)))
		for _, k := range kinds {
			b = binary.AppendUvarint(b, uint64(k))
			if b, err = appendPart(b, byKind[k]); err != nil {
				return nil, err
			}
		}
	}
	b = appendTally(b, m.ZeroLive)
	b = binary.AppendUvarint(b, uint64(len(m.decay)))
	for _, t := range m.decay {
		b = binary.AppendUvarint(b, t.made)
		b = binary.AppendUvarint(b, t.correct)
	}
	b = appendTally(b, m.LivePred)
	if b, err = appendPart(b, m.LiveDiff); err != nil {
		return nil, err
	}
	return appendPart(b, m.LiveRatio)
}

// UnmarshalBinary decodes metrics from exactly data, validating that the
// decay tallies match the predictor thresholds this build sweeps.
func (m *Metrics) UnmarshalBinary(data []byte) error {
	r := reader{b: data}
	w := Metrics{Generations: r.uvarint()}
	w.Live = readPart[stats.Hist](&r)
	w.Dead = readPart[stats.Hist](&r)
	w.AccInt = readPart[stats.Hist](&r)
	w.Reload = readPart[stats.Hist](&r)
	w.DeadByKind = r.byKind()
	w.ReloadByKind = r.byKind()
	w.ZeroLive = r.tally()
	if n := r.uvarint(); r.err == nil && n != uint64(len(DecayThresholds)) {
		return fmt.Errorf("core: Metrics: %d decay tallies, want %d", n, len(DecayThresholds))
	}
	w.decay = make([]decayTally, len(DecayThresholds))
	for i := range w.decay {
		w.decay[i] = decayTally{made: r.uvarint(), correct: r.uvarint()}
	}
	w.LivePred = r.tally()
	w.LiveDiff = readPart[stats.DiffHist](&r)
	w.LiveRatio = readPart[stats.RatioHist](&r)
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return fmt.Errorf("core: Metrics: %w", r.err)
	}
	*m = w
	return nil
}
