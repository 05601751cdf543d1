// Package trace defines the memory-reference stream that drives the
// simulator: the reference record itself, the Stream interface produced by
// workload generators (and by saved trace files), and a compact binary
// encoding for storing traces on disk.
//
// The paper drives SimpleScalar with SPEC2000 binaries; our substitution
// drives the timing model with these reference streams, which carry the
// information the timing model actually consumes: the address, whether it
// is a load or store (or a software prefetch, which the paper treats as a
// normal reference), how many non-memory instructions precede it, and
// whether its address depends on the previous load (pointer chasing).
package trace

// Kind classifies a memory reference.
type Kind uint8

// Reference kinds.
const (
	Load Kind = iota
	Store
	// SWPrefetch is a compiler-inserted software prefetch. The paper's
	// methodology treats these "as normal memory reference instructions"
	// but also experiments with ignoring them.
	SWPrefetch
	numKinds
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case SWPrefetch:
		return "swprefetch"
	default:
		return "invalid"
	}
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool { return k < numKinds }

// Ref is one memory reference in program order.
type Ref struct {
	// Addr is the byte address referenced.
	Addr uint64
	// PC identifies the static instruction; synthetic workloads assign a
	// distinct PC per access pattern so PC-based predictors (DBCP) have
	// something real to correlate on.
	PC uint32
	// Gap is the number of non-memory instructions between the previous
	// reference and this one; the timing model retires them at issue
	// width.
	Gap uint32
	// Kind says whether this is a load, store, or software prefetch.
	Kind Kind
	// DepPrev marks the address as data-dependent on the previous load's
	// result (pointer chasing): the timing model may not issue it until
	// that load completes.
	DepPrev bool
}

// Stream is a source of references in program order. Next returns false
// when the stream is exhausted; streams produced by workload generators
// are typically infinite and never return false. The engine may call Next
// from a goroutine other than its caller's, to generate a long run's
// references beside the simulation, but never from two goroutines at
// once, and every call has returned before the engine's Run does. A
// panic or runtime.Goexit in such a call is repeated on Run's goroutine.
type Stream interface {
	Next(r *Ref) bool
}

// Copier is a Stream that can be copied at its current position. The
// copy yields what the original would yield from there on, and advancing
// one leaves the other alone. Copy reports false when the stream cannot
// be copied after all, as a wrapper around one that cannot.
type Copier interface {
	Stream
	Copy() (Stream, bool)
}

// Copy copies s at its current position. It reports false when s cannot
// be copied: a trace file reader, for one, cannot.
func Copy(s Stream) (Stream, bool) {
	c, ok := s.(Copier)
	if !ok {
		return nil, false
	}
	return c.Copy()
}

// SliceStream replays a fixed slice of references once.
type SliceStream struct {
	Refs []Ref
	pos  int
}

// Next implements Stream.
func (s *SliceStream) Next(r *Ref) bool {
	if s.pos >= len(s.Refs) {
		return false
	}
	*r = s.Refs[s.pos]
	s.pos++
	return true
}

// Copy implements Copier; the copy shares the slice, which neither
// writes.
func (s *SliceStream) Copy() (Stream, bool) {
	c := *s
	return &c, true
}

// DropSWPrefetch wraps a stream and removes software prefetches, the
// paper's "ignoring all the software prefetches" experiment. The dropped
// reference's instruction footprint (its gap plus itself) is folded into
// the following reference's gap so instruction counts stay comparable.
type DropSWPrefetch struct {
	S Stream

	carry uint32
}

// Next implements Stream.
func (d *DropSWPrefetch) Next(r *Ref) bool {
	for {
		if !d.S.Next(r) {
			return false
		}
		if r.Kind != SWPrefetch {
			r.Gap += d.carry
			d.carry = 0
			return true
		}
		d.carry += r.Gap + 1
	}
}

// Copy implements Copier: it copies the wrapped stream and the carry.
func (d *DropSWPrefetch) Copy() (Stream, bool) {
	s, ok := Copy(d.S)
	if !ok {
		return nil, false
	}
	return &DropSWPrefetch{S: s, carry: d.carry}, true
}

// Collect drains up to n references from s into a slice.
func Collect(s Stream, n int) []Ref {
	out := make([]Ref, 0, n)
	var r Ref
	for len(out) < n && s.Next(&r) {
		out = append(out, r)
	}
	return out
}
