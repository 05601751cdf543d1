package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The histograms also have a compact binary form, which the disk result
// tier (internal/store) keeps in place of their JSON: decoding thousands
// of counts through nested json.Unmarshal calls dominated a disk hit.
// Every field is written, every count as one uvarint whether or not it is
// zero, and decoding checks what the JSON decoders check — a positive
// shape and a total equal to the sum of the counts — plus that the input
// is neither truncated nor followed by trailing bytes. Each length is
// checked against the bytes left before anything is allocated, so a
// corrupt input cannot make a decoder allocate without bound.

var (
	errTruncated = errors.New("truncated input")
	errOverflow  = errors.New("varint overflows 64 bits")
)

// decoder reads a binary form front to back; its first error sticks, and
// every read after it returns zero.
type decoder struct {
	b   []byte
	err error
}

// uvarint reads one unsigned varint.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errTruncated
		if n < 0 {
			d.err = errOverflow
		}
		return 0
	}
	d.b = d.b[n:]
	return v
}

// length reads a length and checks that each of its elements, at least
// one byte apiece, fits in the bytes left.
func (d *decoder) length() int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)) {
		d.err = fmt.Errorf("length %d exceeds the %d bytes left", n, len(d.b))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// float64 reads eight little-endian bytes as a float64.
func (d *decoder) float64() float64 {
	if d.err == nil && len(d.b) < 8 {
		d.err = errTruncated
	}
	if d.err != nil {
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// counts reads n uvarint counts and returns them with their sum. Most
// counts fit in one byte, so that case skips binary.Uvarint.
func (d *decoder) counts(n int) ([]uint64, uint64) {
	if d.err == nil && n > len(d.b) {
		d.err = errTruncated
	}
	if d.err != nil {
		return nil, 0
	}
	out := make([]uint64, n)
	var sum uint64
	b := d.b
	for i := range out {
		if len(b) > 0 && b[0] < 0x80 {
			out[i] = uint64(b[0])
			sum += out[i]
			b = b[1:]
			continue
		}
		d.b = b
		out[i] = d.uvarint()
		if d.err != nil {
			return nil, 0
		}
		sum += out[i]
		b = d.b
	}
	d.b = b
	return out, sum
}

// finish returns the first error, or an error for any trailing bytes,
// naming the type decoded.
func (d *decoder) finish(typ string) error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("stats: %s: %w", typ, d.err)
	}
	return nil
}

// appendCounts appends each count as one uvarint.
func appendCounts(b []byte, counts []uint64) []byte {
	for _, c := range counts {
		b = binary.AppendUvarint(b, c)
	}
	return b
}

// MarshalBinary encodes the histogram including its sample counts: width,
// bucket count, the Buckets+1 counts, total, sum, min and max.
func (h *Hist) MarshalBinary() ([]byte, error) {
	b := binary.AppendUvarint(nil, h.Width)
	b = binary.AppendUvarint(b, uint64(h.Buckets))
	b = appendCounts(b, h.counts)
	b = binary.AppendUvarint(b, h.total)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.sum))
	b = binary.AppendUvarint(b, h.min)
	return binary.AppendUvarint(b, h.max), nil
}

// UnmarshalBinary decodes a histogram from exactly data, validating its
// shape.
func (h *Hist) UnmarshalBinary(data []byte) error {
	d := decoder{b: data}
	width := d.uvarint()
	buckets := d.length()
	if d.err == nil && (width == 0 || buckets == 0) {
		return fmt.Errorf("stats: Hist: invalid shape width=%d buckets=%d", width, buckets)
	}
	counts, sum := d.counts(buckets + 1)
	w := Hist{Width: width, Buckets: buckets, counts: counts}
	w.total = d.uvarint()
	w.sum = d.float64()
	w.min = d.uvarint()
	w.max = d.uvarint()
	if err := d.finish("Hist"); err != nil {
		return err
	}
	if sum != w.total {
		return fmt.Errorf("stats: Hist: total %d != sum of counts %d", w.total, sum)
	}
	*h = w
	return nil
}

// MarshalBinary encodes the difference histogram including its sample
// counts: MinAbs, span, the 2*Span+1 counts and total.
func (d *DiffHist) MarshalBinary() ([]byte, error) {
	b := binary.AppendUvarint(nil, d.MinAbs)
	b = binary.AppendUvarint(b, uint64(d.Span))
	b = appendCounts(b, d.counts)
	return binary.AppendUvarint(b, d.total), nil
}

// UnmarshalBinary decodes a difference histogram from exactly data,
// validating its shape.
func (d *DiffHist) UnmarshalBinary(data []byte) error {
	r := decoder{b: data}
	minAbs := r.uvarint()
	span := r.length()
	if r.err == nil && (minAbs == 0 || span == 0) {
		return fmt.Errorf("stats: DiffHist: invalid shape min_abs=%d span=%d", minAbs, span)
	}
	counts, sum := r.counts(2*span + 1)
	total := r.uvarint()
	if err := r.finish("DiffHist"); err != nil {
		return err
	}
	if sum != total {
		return fmt.Errorf("stats: DiffHist: total %d != sum of counts %d", total, sum)
	}
	*d = DiffHist{MinAbs: minAbs, Span: span, counts: counts, total: total}
	return nil
}

// MarshalBinary encodes the ratio histogram including its sample counts:
// span, the 2*Span+1 counts and total.
func (r *RatioHist) MarshalBinary() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(r.Span))
	b = appendCounts(b, r.counts)
	return binary.AppendUvarint(b, r.total), nil
}

// UnmarshalBinary decodes a ratio histogram from exactly data, validating
// its shape.
func (r *RatioHist) UnmarshalBinary(data []byte) error {
	d := decoder{b: data}
	span := d.length()
	if d.err == nil && span == 0 {
		return fmt.Errorf("stats: RatioHist: invalid span %d", span)
	}
	counts, sum := d.counts(2*span + 1)
	total := d.uvarint()
	if err := d.finish("RatioHist"); err != nil {
		return err
	}
	if sum != total {
		return fmt.Errorf("stats: RatioHist: total %d != sum of counts %d", total, sum)
	}
	*r = RatioHist{Span: span, counts: counts, total: total}
	return nil
}
