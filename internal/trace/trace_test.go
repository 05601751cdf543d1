package trace

import (
	"bytes"
	"reflect"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Load: "load", Store: "store", SWPrefetch: "swprefetch", Kind(9): "invalid"}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestKindValid(t *testing.T) {
	if !Load.Valid() || !Store.Valid() || !SWPrefetch.Valid() {
		t.Fatal("defined kinds should be valid")
	}
	if Kind(3).Valid() {
		t.Fatal("kind 3 should be invalid")
	}
}

func TestSliceStream(t *testing.T) {
	refs := []Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	s := &SliceStream{Refs: refs}
	var r Ref
	for i := 0; i < 3; i++ {
		if !s.Next(&r) || r.Addr != refs[i].Addr {
			t.Fatalf("ref %d wrong", i)
		}
	}
	if s.Next(&r) {
		t.Fatal("stream should be exhausted")
	}
}

// drain reads s to its end.
func drain(s Stream) []Ref {
	var out []Ref
	var r Ref
	for s.Next(&r) {
		out = append(out, r)
	}
	return out
}

// TestStreamCopySlice: a copy of a SliceStream taken mid-way yields the
// rest of the slice, and the two advance independently.
func TestStreamCopySlice(t *testing.T) {
	refs := []Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}, {Addr: 4}}
	s := &SliceStream{Refs: refs}
	var r Ref
	s.Next(&r)
	c, ok := Copy(s)
	if !ok {
		t.Fatal("SliceStream cannot be copied")
	}
	if got := drain(c); !reflect.DeepEqual(got, refs[1:]) {
		t.Fatalf("copy yields %v, want %v", got, refs[1:])
	}
	if got := drain(s); !reflect.DeepEqual(got, refs[1:]) {
		t.Fatalf("original after draining its copy yields %v, want %v", got, refs[1:])
	}
	if c, ok := Copy(s); !ok || c.Next(&r) {
		t.Fatal("a copy of an exhausted stream should be exhausted")
	}
}

// TestStreamCopyDropSWPrefetch: a copy of the filter taken in front of
// dropped prefetches folds their gaps as the original does, and only a
// copyable stream beneath it makes it copyable.
func TestStreamCopyDropSWPrefetch(t *testing.T) {
	refs := []Ref{
		{Addr: 1, Kind: Load, Gap: 2},
		{Addr: 2, Kind: SWPrefetch, Gap: 3},
		{Addr: 3, Kind: Store, Gap: 1},
		{Addr: 4, Kind: SWPrefetch, Gap: 6},
		{Addr: 5, Kind: Load, Gap: 0},
	}
	want := drain(&DropSWPrefetch{S: &SliceStream{Refs: refs}})
	d := &DropSWPrefetch{S: &SliceStream{Refs: refs}}
	var r Ref
	d.Next(&r)
	c, ok := Copy(d)
	if !ok {
		t.Fatal("DropSWPrefetch over a SliceStream cannot be copied")
	}
	if got := drain(c); !reflect.DeepEqual(got, want[1:]) {
		t.Fatalf("copy yields %v, want %v", got, want[1:])
	}
	if got := drain(d); !reflect.DeepEqual(got, want[1:]) {
		t.Fatalf("original yields %v, want %v", got, want[1:])
	}

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Copy(rd); ok {
		t.Fatal("a trace Reader claims it can be copied")
	}
	if _, ok := Copy(&DropSWPrefetch{S: rd}); ok {
		t.Fatal("DropSWPrefetch over a Reader claims it can be copied")
	}
}

func TestDropSWPrefetch(t *testing.T) {
	s := &SliceStream{Refs: []Ref{
		{Addr: 1, Kind: Load, Gap: 2},
		{Addr: 2, Kind: SWPrefetch, Gap: 3},
		{Addr: 3, Kind: SWPrefetch, Gap: 1},
		{Addr: 4, Kind: Store, Gap: 5},
	}}
	d := &DropSWPrefetch{S: s}
	var r Ref
	if !d.Next(&r) || r.Addr != 1 || r.Gap != 2 {
		t.Fatalf("first ref wrong: %+v", r)
	}
	// The two dropped prefetches contribute gap 3+1 plus 2 instructions.
	if !d.Next(&r) || r.Addr != 4 || r.Gap != 5+3+1+2 {
		t.Fatalf("second ref wrong: %+v", r)
	}
	if d.Next(&r) {
		t.Fatal("stream should be exhausted")
	}
}

func TestCollect(t *testing.T) {
	s := &SliceStream{Refs: make([]Ref, 7)}
	if got := Collect(s, 5); len(got) != 5 {
		t.Fatalf("Collect = %d refs", len(got))
	}
	if got := Collect(s, 5); len(got) != 2 {
		t.Fatalf("Collect tail = %d refs", len(got))
	}
}
