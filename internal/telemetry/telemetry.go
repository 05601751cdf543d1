// Package telemetry is the repository's one span model: W3C-traceparent-
// style identifiers issued at request ingress, a per-request span timeline
// recorded as the job moves through the service stages (validate, queue
// wait, cache probe, proxy hop, simulate, persist, respond) and through
// the simulator's run phases (internal/events records those, with their
// sim-cycle and reference extents), and the JSONL and Chrome trace-event
// exporters every span goes through.
//
// The design rules follow internal/obs: a nil *Trace is a valid no-op, so
// instrumented code never branches on "is tracing on"; recording a span
// is one mutex-guarded append with no allocations beyond the span itself.
// Spans are recorded complete (start and end already known) — the service
// stages are strictly ordered inside one job, so there is no need for an
// open-span handle on the hot path.
//
// Cross-node semantics: a node receiving a traceparent header joins the
// inbound trace instead of minting a fresh one, records its spans under
// the shared trace ID with its own node label, and hands its spans back
// to the caller in the job view — so one proxied request yields ONE trace
// whose timeline spans both nodes.
package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Traceparent header layout: version "00", 16-byte trace ID, 8-byte span
// ID, flags "01" (sampled), all lowercase hex, dash-separated.
const (
	traceIDLen = 32
	spanIDLen  = 16
)

// NewTraceID returns a fresh random 32-hex-digit trace ID.
func NewTraceID() string { return randHex(traceIDLen) }

// NewSpanID returns a fresh random 16-hex-digit span ID.
func NewSpanID() string { return randHex(spanIDLen) }

func randHex(n int) string {
	b := make([]byte, n/2)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("telemetry: reading random bytes: %v", err))
	}
	return hex.EncodeToString(b)
}

// ParseTraceparent extracts the trace ID and parent span ID from a W3C
// traceparent header ("00-<trace-id>-<span-id>-<flags>"). ok is false for
// anything malformed, for the forbidden version ff and for all-zero IDs,
// in which case the caller should mint a fresh trace.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != traceIDLen || len(parts[2]) != spanIDLen || len(parts[3]) != 2 {
		return "", "", false
	}
	if !isHex(parts[1]) || !isHex(parts[2]) || !isHex(parts[0]) || !isHex(parts[3]) || parts[0] == "ff" {
		return "", "", false
	}
	if parts[1] == strings.Repeat("0", traceIDLen) || parts[2] == strings.Repeat("0", spanIDLen) {
		return "", "", false
	}
	return parts[1], parts[2], true
}

// FormatTraceparent renders the W3C traceparent header for an outbound
// hop: version 00, sampled.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Span is one completed interval, attributed to the node that executed
// it: a stage of a request's lifecycle, or a run phase of a simulation
// (warm-up, measurement, a sampling window). A run phase also carries its
// sim-cycle and reference-index extents; on service spans they are zero.
type Span struct {
	TraceID string
	SpanID  string
	Parent  string // parent span ID; empty for the trace root
	Name    string
	Node    string
	Start   time.Time
	End     time.Time
	Attrs   map[string]string

	SimStart, SimEnd uint64 // sim cycles
	RefStart, RefEnd uint64 // demand L1 accesses
}

// Dur returns the span's wall duration.
func (sp Span) Dur() time.Duration { return sp.End.Sub(sp.Start) }

// Trace accumulates one request's spans on one node. Create with New;
// a nil *Trace is a valid no-op, so disabling tracing costs nothing on
// the recording paths.
type Trace struct {
	traceID string
	parent  string // inbound caller's span ID ("" when this node originated the trace)
	rootID  string // this node's root span ID; children and outbound hops parent here
	node    string

	mu    sync.Mutex
	spans []Span
}

// New starts (or joins) a trace on this node. traceID/parentSpan come
// from an inbound traceparent header; empty traceID mints a fresh trace,
// making this node the origin. node labels every span this trace records.
func New(traceID, parentSpan, node string) *Trace {
	if traceID == "" {
		traceID = NewTraceID()
		parentSpan = ""
	}
	return &Trace{traceID: traceID, parent: parentSpan, rootID: NewSpanID(), node: node}
}

// TraceID returns the trace's fleet-wide identifier.
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// RootID returns this node's root span ID — the parent for outbound hops.
func (t *Trace) RootID() string {
	if t == nil {
		return ""
	}
	return t.rootID
}

// Joined reports whether this node joined an inbound trace (New was given
// the caller's trace and span IDs) rather than originating one.
func (t *Trace) Joined() bool {
	return t != nil && t.parent != ""
}

// Traceparent renders the header an outbound hop should carry so the
// remote node joins this trace as a child of this node's root span.
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	return FormatTraceparent(t.traceID, t.rootID)
}

// Span records one completed child span. kv is alternating key/value
// attribute pairs (a trailing odd key is dropped).
func (t *Trace) Span(name string, start, end time.Time, kv ...string) {
	if t == nil {
		return
	}
	t.Add(Span{Name: name, Start: start, End: end, Attrs: attrs(kv)})
}

// Add records sp as one completed child span, stamping this trace's ID, a
// fresh span ID, the root as parent and this node's label.
func (t *Trace) Add(sp Span) {
	if t == nil {
		return
	}
	sp.TraceID, sp.SpanID, sp.Parent, sp.Node = t.traceID, NewSpanID(), t.rootID, t.node
	t.record(sp)
}

// Root records this node's root span — the full ingress-to-response
// extent — under the node's root span ID, parented to the inbound
// caller's span when this node joined an existing trace.
func (t *Trace) Root(name string, start, end time.Time, kv ...string) {
	if t == nil {
		return
	}
	t.record(Span{
		TraceID: t.traceID,
		SpanID:  t.rootID,
		Parent:  t.parent,
		Name:    name,
		Node:    t.node,
		Start:   start,
		End:     end,
		Attrs:   attrs(kv),
	})
}

func (t *Trace) record(sp Span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Merge appends spans recorded elsewhere (a proxied hop's remote
// timeline). Spans from a different trace are relabeled onto this one —
// the merge is what unifies the request's fleet-wide story.
func (t *Trace) Merge(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for _, sp := range spans {
		sp.TraceID = t.traceID
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// Spans returns a copy of everything recorded so far, in record order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dominant returns the longest span that is not a root/ingress extent —
// the stage a slow request actually spent its time in. ok is false when
// no stage span exists.
func Dominant(spans []Span) (Span, bool) {
	var best Span
	found := false
	for _, sp := range spans {
		if sp.Parent == "" || sp.Name == "ingress" {
			continue
		}
		if !found || sp.Dur() > best.Dur() {
			best, found = sp, true
		}
	}
	return best, found
}

// attrs folds alternating key/value pairs into a map (nil when empty).
func attrs(kv []string) map[string]string {
	if len(kv) < 2 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}
