package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// jsonlSpan is the JSONL wire form of one span: one object per line,
// microsecond timestamps, flat attribute map. The sim-cycle and reference
// extents are omitted when zero, so service spans carry none of them.
type jsonlSpan struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	Parent   string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Node     string            `json:"node"`
	StartUS  int64             `json:"start_us"`
	DurUS    int64             `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	SimStart uint64            `json:"sim_start,omitempty"`
	SimEnd   uint64            `json:"sim_end,omitempty"`
	RefStart uint64            `json:"ref_start,omitempty"`
	RefEnd   uint64            `json:"ref_end,omitempty"`
}

// WriteJSONL renders spans as one JSON object per line, ordered by start
// time (ties broken by node then name, so output is deterministic).
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range sortedSpans(spans) {
		if err := enc.Encode(jsonlSpan{
			TraceID:  sp.TraceID,
			SpanID:   sp.SpanID,
			Parent:   sp.Parent,
			Name:     sp.Name,
			Node:     sp.Node,
			StartUS:  sp.Start.UnixMicro(),
			DurUS:    sp.End.Sub(sp.Start).Microseconds(),
			Attrs:    sp.Attrs,
			SimStart: sp.SimStart,
			SimEnd:   sp.SimEnd,
			RefStart: sp.RefStart,
			RefEnd:   sp.RefEnd,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Process is a group of Chrome trace events drawn as one process beside
// the span tracks, such as internal/events' per-frame timeline. Each event
// is a trace-event object without its pid, which the writer assigns;
// events on one tid must be in timestamp order.
type Process struct {
	Name   string
	Events []map[string]any
}

// WriteChromeTrace renders spans as Chrome trace-event JSON (open with
// https://ui.perfetto.dev): one "process" per node, every span a complete
// slice on the node's wall-clock track, timestamps relative to the
// earliest span so the trace starts at zero. Spans with a sim-cycle extent
// appear again on a "run spans (sim cycles)" track, one cycle to one trace
// microsecond. procs are drawn after the spans, one process each.
func WriteChromeTrace(w io.Writer, traceID string, spans []Span, procs ...Process) error {
	spans = sortedSpans(spans)

	// Stable node -> pid assignment: sorted node names, pids from 1.
	nodeSet := map[string]bool{}
	for _, sp := range spans {
		nodeSet[sp.Node] = true
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	pids := make(map[string]int, len(nodes))
	for i, n := range nodes {
		pids[n] = i + 1
	}

	var t0 time.Time
	for i, sp := range spans {
		if i == 0 || sp.Start.Before(t0) {
			t0 = sp.Start
		}
	}

	var tes []map[string]any
	processName := func(pid int, name string) {
		tes = append(tes, map[string]any{
			"ph": "M", "pid": pid, "tid": 1, "ts": 0,
			"name": "process_name", "args": map[string]any{"name": name},
		})
	}
	for _, n := range nodes {
		processName(pids[n], fmt.Sprintf("node %s", n))
	}
	var sim []Span
	for _, sp := range spans {
		tes = append(tes, map[string]any{
			"ph": "X", "pid": pids[sp.Node], "tid": 1,
			"ts":   sp.Start.Sub(t0).Microseconds(),
			"dur":  sp.End.Sub(sp.Start).Microseconds(),
			"name": sp.Name, "args": spanArgs(traceID, sp),
		})
		if sp.SimEnd > sp.SimStart {
			sim = append(sim, sp)
		}
	}
	if len(sim) > 0 {
		sort.SliceStable(sim, func(i, j int) bool { return sim[i].SimStart < sim[j].SimStart })
		p := Process{Name: "run spans (sim cycles)"}
		for _, sp := range sim {
			p.Events = append(p.Events, map[string]any{
				"ph": "X", "tid": 1, "ts": sp.SimStart, "dur": sp.SimEnd - sp.SimStart,
				"name": sp.Name, "args": spanArgs(traceID, sp),
			})
		}
		procs = append([]Process{p}, procs...)
	}
	for i, p := range procs {
		pid := len(nodes) + 1 + i
		processName(pid, p.Name)
		for _, ev := range p.Events {
			ev["pid"] = pid
			tes = append(tes, ev)
		}
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, te := range tes {
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		b, err := json.Marshal(te)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// spanArgs is a span's Chrome slice arguments: its IDs, its attributes
// and, for a run phase, the sim cycles and references it covered.
func spanArgs(traceID string, sp Span) map[string]any {
	args := map[string]any{
		"trace_id": traceID,
		"span_id":  sp.SpanID,
	}
	if sp.Parent != "" {
		args["parent_id"] = sp.Parent
	}
	for k, v := range sp.Attrs {
		args[k] = v
	}
	if sp.SimEnd > sp.SimStart || sp.RefEnd > sp.RefStart {
		args["sim_cycles"] = sp.SimEnd - sp.SimStart
		args["refs"] = sp.RefEnd - sp.RefStart
	}
	return args
}

// sortedSpans returns a copy ordered by start time (then node, then
// name) so exports are deterministic regardless of record/merge order.
func sortedSpans(spans []Span) []Span {
	out := append([]Span(nil), spans...)
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Name < out[j].Name
	})
	return out
}
