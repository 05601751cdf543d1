package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New("", "", "http://a:1")
	h := tr.Traceparent()
	traceID, spanID, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) not ok", h)
	}
	if traceID != tr.TraceID() || spanID != tr.RootID() {
		t.Fatalf("round trip got (%s, %s), want (%s, %s)", traceID, spanID, tr.TraceID(), tr.RootID())
	}
	if len(tr.TraceID()) != 32 || len(tr.RootID()) != 16 {
		t.Fatalf("ID lengths: trace %d span %d", len(tr.TraceID()), len(tr.RootID()))
	}
}

// validTraceparent is a well-formed header; malformedTraceparents are
// headers ParseTraceparent must reject. Both seed FuzzParseTraceparent.
const validTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-bb90a51c68d1eb7f-01"

var malformedTraceparents = []string{
	"",
	"garbage",
	"00-short-bb90a51c68d1eb7f-01",
	"00-4bf92f3577b34da6a3ce929d0e0e4736-bb90a51c68d1eb7f",          // missing flags
	"00-4bf92f3577b34da6a3ce929d0e0e4736-BB90A51C68D1EB7F-01",       // uppercase hex
	"00-00000000000000000000000000000000-bb90a51c68d1eb7f-01",       // all-zero trace
	"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // all-zero span
	"zz-4bf92f3577b34da6a3ce929d0e0e4736-bb90a51c68d1eb7f-01",       // bad version
	"ff-4bf92f3577b34da6a3ce929d0e0e4736-bb90a51c68d1eb7f-01",       // forbidden version
	"00-4bf92f3577b34da6a3ce929d0e0e4736x-bb90a51c68d1eb7f-01",      // bad length
	"00-4bf92f3577b34da6a3ce929d0e0e4736-bb90a51c68d1eb7f-01-extra", // too many parts
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	for _, h := range malformedTraceparents {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) = ok, want reject", h)
		}
	}
	if id, span, ok := ParseTraceparent(validTraceparent); !ok || id != "4bf92f3577b34da6a3ce929d0e0e4736" || span != "bb90a51c68d1eb7f" {
		t.Errorf("valid header rejected: ok=%v id=%s span=%s", ok, id, span)
	}
}

// FuzzParseTraceparent: the parser never panics, and a header it accepts
// carries lowercase-hex, nonzero IDs of the W3C lengths that round-trip
// through FormatTraceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(validTraceparent)
	for _, h := range malformedTraceparents {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		traceID, spanID, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		for _, id := range []struct {
			v string
			n int
		}{{traceID, traceIDLen}, {spanID, spanIDLen}} {
			if len(id.v) != id.n || !isHex(id.v) || id.v == strings.Repeat("0", id.n) {
				t.Fatalf("ParseTraceparent(%q) accepted ID %q, want %d lowercase hex digits, not all zero", h, id.v, id.n)
			}
		}
		back, backSpan, ok := ParseTraceparent(FormatTraceparent(traceID, spanID))
		if !ok || back != traceID || backSpan != spanID {
			t.Fatalf("ParseTraceparent(%q) = (%s, %s) does not round-trip: (%s, %s, %v)", h, traceID, spanID, back, backSpan, ok)
		}
	})
}

func TestJoinKeepsTraceID(t *testing.T) {
	origin := New("", "", "http://a:1")
	joined := New(origin.TraceID(), origin.RootID(), "http://b:2")
	if joined.TraceID() != origin.TraceID() {
		t.Fatalf("joined trace ID %s, want %s", joined.TraceID(), origin.TraceID())
	}
	t0 := time.Now()
	joined.Root("ingress", t0, t0.Add(time.Millisecond))
	spans := joined.Spans()
	if len(spans) != 1 || spans[0].Parent != origin.RootID() {
		t.Fatalf("joined root parent = %q, want origin root %s", spans[0].Parent, origin.RootID())
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	tr.Span("x", time.Now(), time.Now())
	tr.Root("ingress", time.Now(), time.Now())
	tr.Merge([]Span{{Name: "y"}})
	if tr.TraceID() != "" || tr.Traceparent() != "" || tr.Spans() != nil {
		t.Fatal("nil trace leaked state")
	}
}

func TestMergeRelabelsRemoteSpans(t *testing.T) {
	local := New("", "", "http://a:1")
	remote := New("other-trace-id-entirely-000000ff", "aaaaaaaaaaaaaaaa", "http://b:2")
	t0 := time.Now()
	remote.Span("simulate", t0, t0.Add(time.Second))
	local.Merge(remote.Spans())
	spans := local.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if spans[0].TraceID != local.TraceID() {
		t.Fatalf("merged span trace ID %s, want %s", spans[0].TraceID, local.TraceID())
	}
	if spans[0].Node != "http://b:2" {
		t.Fatalf("merged span node %s, want remote node", spans[0].Node)
	}
}

func TestDominant(t *testing.T) {
	tr := New("", "", "n")
	t0 := time.Now()
	tr.Root("ingress", t0, t0.Add(10*time.Second)) // excluded: root extent
	tr.Span("queue_wait", t0, t0.Add(time.Millisecond))
	tr.Span("simulate", t0, t0.Add(8*time.Second))
	tr.Span("persist", t0, t0.Add(time.Millisecond))
	sp, ok := Dominant(tr.Spans())
	if !ok || sp.Name != "simulate" {
		t.Fatalf("Dominant = %q ok=%v, want simulate", sp.Name, ok)
	}
	if _, ok := Dominant(nil); ok {
		t.Fatal("Dominant(nil) reported a span")
	}
}

func TestSpanAttrs(t *testing.T) {
	tr := New("", "", "n")
	t0 := time.Now()
	tr.Span("resolve", t0, t0.Add(time.Millisecond), "outcome", "hit", "dangling")
	sp := tr.Spans()[0]
	if sp.Attrs["outcome"] != "hit" || len(sp.Attrs) != 1 {
		t.Fatalf("attrs = %v, want {outcome: hit}", sp.Attrs)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := New("", "", "http://a:1")
	t0 := time.Unix(1700000000, 0)
	tr.Root("ingress", t0, t0.Add(30*time.Millisecond))
	tr.Span("simulate", t0.Add(time.Millisecond), t0.Add(25*time.Millisecond), "outcome", "miss")

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var sp jsonlSpan
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if sp.TraceID != tr.TraceID() {
			t.Fatalf("line %d trace ID %s, want %s", n, sp.TraceID, tr.TraceID())
		}
		if sp.DurUS <= 0 {
			t.Fatalf("line %d non-positive duration %d", n, sp.DurUS)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("got %d JSONL lines, want 2", n)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	entry := New("", "", "http://a:1")
	t0 := time.Unix(1700000000, 0)
	entry.Root("ingress", t0, t0.Add(40*time.Millisecond))
	entry.Span("proxy", t0.Add(time.Millisecond), t0.Add(38*time.Millisecond), "peer", "http://b:2")

	owner := New(entry.TraceID(), entry.RootID(), "http://b:2")
	owner.Root("ingress", t0.Add(2*time.Millisecond), t0.Add(37*time.Millisecond))
	owner.Span("simulate", t0.Add(3*time.Millisecond), t0.Add(35*time.Millisecond))
	entry.Merge(owner.Spans())

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, entry.TraceID(), entry.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	metas, slices := 0, 0
	pids := map[float64]bool{}
	for _, te := range doc.TraceEvents {
		switch te["ph"] {
		case "M":
			metas++
		case "X":
			slices++
			pids[te["pid"].(float64)] = true
		}
	}
	if metas != 2 {
		t.Fatalf("got %d process metadata events, want 2 (one per node)", metas)
	}
	if slices != 4 {
		t.Fatalf("got %d slices, want 4", slices)
	}
	if len(pids) != 2 {
		t.Fatalf("slices span %d pids, want 2 nodes", len(pids))
	}
	if !strings.Contains(buf.String(), entry.TraceID()) {
		t.Fatal("trace ID missing from chrome trace args")
	}
}
