package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"timekeeping/internal/telemetry"
)

// tracer holds the traced run's spans in memory until the run ends. The
// spans are recorded by the harness around its calls into each layer's
// public functions; nothing inside the simulator or the service is
// instrumented.
type tracer struct {
	traceID string

	mu    sync.Mutex
	spans []telemetry.Span
}

func newTracer() *tracer { return &tracer{traceID: telemetry.NewTraceID()} }

// span is an open span. A nil *span is a valid no-op, so the timed code
// paths run unchanged when tracing is off.
type span struct {
	t  *tracer
	sp telemetry.Span
}

// root opens the trace's root span.
func (t *tracer) root(name string, kv ...string) *span {
	if t == nil {
		return nil
	}
	return &span{t: t, sp: telemetry.Span{
		TraceID: t.traceID,
		SpanID:  telemetry.NewSpanID(),
		Name:    name,
		Node:    "bench",
		Start:   time.Now(),
		Attrs:   attrs(kv),
	}}
}

// child opens a span under s.
func (s *span) child(name string, kv ...string) *span {
	if s == nil {
		return nil
	}
	c := s.t.root(name, kv...)
	c.sp.Parent = s.sp.SpanID
	return c
}

// end closes the span, adding kv to its attributes.
func (s *span) end(kv ...string) {
	if s == nil {
		return
	}
	s.sp.End = time.Now()
	for k, v := range attrs(kv) {
		if s.sp.Attrs == nil {
			s.sp.Attrs = map[string]string{}
		}
		s.sp.Attrs[k] = v
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.sp)
	s.t.mu.Unlock()
}

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

// onNode moves the span to its own track: concurrent callers (the serving
// workloads' two clients) each get one, so their spans nest in a viewer.
func (s *span) onNode(node string) *span {
	if s != nil {
		s.sp.Node = node
	}
	return s
}

// selfShare returns the share of the root span's wall time that the spans
// below it account for: one minus the root's self time over its duration.
// A span's self time is its duration minus the part of that interval its
// child spans cover.
func (t *tracer) selfShare() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfShare(t.spans)
}

func selfShare(spans []telemetry.Span) float64 {
	var root telemetry.Span
	for _, sp := range spans {
		if sp.Parent == "" {
			root = sp
		}
	}
	return ratio(covered(root, spans).Seconds(), root.Dur().Seconds())
}

// covered returns how much of parent's interval its direct children
// cover, counting overlapping children once.
func covered(parent telemetry.Span, spans []telemetry.Span) time.Duration {
	var kids []telemetry.Span
	for _, sp := range spans {
		if sp.Parent == parent.SpanID && parent.SpanID != "" {
			kids = append(kids, sp)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var end time.Time
	for _, k := range kids {
		start := k.Start
		if start.Before(end) {
			start = end
		}
		if k.End.After(start) {
			total += k.End.Sub(start)
			end = k.End
		}
	}
	return total
}

// write renders the spans as a Chrome trace (open it in Perfetto) at
// dir/<w>.trace.json.
func (t *tracer) write(dir, w string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(filepath.Join(dir, w+".trace.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, t.traceID, t.spans); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
