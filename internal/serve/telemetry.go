package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"timekeeping/internal/obs"
	"timekeeping/internal/simcache"
	"timekeeping/internal/telemetry"
	"timekeeping/pkg/api"
)

// Canonical stage names: every per-request span the serving stack records
// and the label set of the tkserve_stage_seconds histograms. Ingress is
// the whole handler extent; the rest partition it.
const (
	stageIngress   = "ingress"
	stageValidate  = "validate"
	stageQueueWait = "queue_wait"
	stageResolve   = "resolve"
	stageProxy     = "proxy"
	stageRespond   = "respond"
	// probe_disk / simulate / persist come from the simcache flight and
	// are imported from internal/simcache at the observation site.
)

// stageNames is the full histogram label set, registered up front so
// /metrics shows every stage at zero before traffic arrives.
var stageNames = []string{
	stageIngress, stageValidate, stageQueueWait, stageResolve,
	"probe_disk", "simulate", "persist",
	stageProxy, stageRespond,
}

// stageBounds covers sub-millisecond cache hits through multi-minute
// simulations.
var stageBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 300,
}

// registerStageMetrics creates the per-stage latency histograms. The map
// is immutable after New, so observeStage reads it without a lock.
func (s *Server) registerStageMetrics() {
	s.stageHists = make(map[string]*obs.Histogram, len(stageNames))
	for _, st := range stageNames {
		s.stageHists[st] = s.reg.Histogram(fmt.Sprintf("tkserve_stage_seconds{stage=%q}", st), stageBounds)
	}
}

// observeStage records one stage duration. Unlike span recording this is
// always on — per-stage latency attribution survives -tracing=false.
func (s *Server) observeStage(stage string, d time.Duration) {
	if h, ok := s.stageHists[stage]; ok {
		h.Observe(d.Seconds())
	}
}

// stageObserver returns the simcache StageFunc attributing a flight's
// stages (disk probe, simulate, persist) to j's trace and the stage
// histograms. Only the flight creator observes — callers that joined an
// in-flight run or hit the memory cache did no staged work.
func (s *Server) stageObserver(j *job) simcache.StageFunc {
	return func(stage string, start, end time.Time) {
		j.trace.Span(stage, start, end)
		s.observeStage(stage, end.Sub(start))
	}
}

// newTrace starts (or, given a valid inbound traceparent, joins) a trace
// for one request. Nil when tracing is disabled — every recording site is
// nil-safe.
func (s *Server) newTrace(r *http.Request) *telemetry.Trace {
	if !s.tracing {
		return nil
	}
	traceID, parent, _ := telemetry.ParseTraceparent(r.Header.Get(api.HeaderTraceparent))
	return telemetry.New(traceID, parent, s.node)
}

// ridCtxKey carries the request ID from the logging middleware to the
// handlers, so the job record and proxy hops reuse the same ID.
type ridCtxKey struct{}

func withRequestID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, ridCtxKey{}, rid)
}

func requestIDFrom(ctx context.Context) string {
	rid, _ := ctx.Value(ridCtxKey{}).(string)
	return rid
}

// sanitizeRequestID accepts a client-supplied request ID only when it is
// short and shell/log-safe; anything else is discarded and the server
// mints its own.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c == '.' || c == '_' || c == ':' || c == '-':
		default:
			return ""
		}
	}
	return id
}

// maybeLogSlow emits one structured warning for a request whose job
// exceeded the slow-request threshold, naming the trace and the dominant
// stage so the log line alone answers "where did the time go".
func (s *Server) maybeLogSlow(j *job, snap api.JobView, total time.Duration) {
	if s.slowReq <= 0 || total < s.slowReq {
		return
	}
	args := []any{
		"job_id", snap.ID,
		"request_id", j.rid,
		"target", snap.Target,
		"total_ms", float64(total) / float64(time.Millisecond),
	}
	if tid := j.trace.TraceID(); tid != "" {
		args = append(args, "trace_id", tid)
	}
	if dom, ok := telemetry.Dominant(j.trace.Spans()); ok {
		args = append(args,
			"dominant_stage", dom.Name,
			"dominant_ms", float64(dom.Dur())/float64(time.Millisecond),
		)
	}
	s.log.Warn("slow request", args...)
}

// traceView renders a job's timeline as the wire TraceView carried inside
// JobView — the vehicle that hands a proxied hop's spans back to the
// entry node.
func traceView(j *job) *api.TraceView {
	spans := j.trace.Spans()
	v := &api.TraceView{TraceID: j.trace.TraceID(), Spans: make([]api.SpanView, 0, len(spans))}
	for _, sp := range spans {
		v.Spans = append(v.Spans, api.SpanView{
			SpanID:   sp.SpanID,
			ParentID: sp.Parent,
			Name:     sp.Name,
			Node:     sp.Node,
			StartUS:  sp.Start.UnixMicro(),
			DurUS:    sp.End.Sub(sp.Start).Microseconds(),
			Attrs:    sp.Attrs,
		})
	}
	return v
}

// spansFromView is traceView's inverse: it rehydrates a peer's wire spans
// for merging into the local trace.
func spansFromView(v *api.TraceView) []telemetry.Span {
	if v == nil {
		return nil
	}
	spans := make([]telemetry.Span, 0, len(v.Spans))
	for _, sv := range v.Spans {
		start := time.UnixMicro(sv.StartUS)
		spans = append(spans, telemetry.Span{
			TraceID: v.TraceID,
			SpanID:  sv.SpanID,
			Parent:  sv.ParentID,
			Name:    sv.Name,
			Node:    sv.Node,
			Start:   start,
			End:     start.Add(time.Duration(sv.DurUS) * time.Microsecond),
			Attrs:   sv.Attrs,
		})
	}
	return spans
}

// handleTrace serves a job's distributed trace: Chrome trace-event JSON
// (Perfetto-compatible, one process lane per node, plus the sim-cycle
// track when the run captured events) by default, compact JSONL with
// ?format=jsonl. For a proxied run the timeline includes the owning
// peer's spans, merged at proxy return.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.mgr.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, unknownJob(id))
		return
	}
	if j.trace == nil {
		writeError(w, http.StatusBadRequest, &api.Error{
			Code:    api.CodeBadRequest,
			Message: fmt.Sprintf("serve: job %s has no trace (tracing is disabled on this server)", id),
		})
		return
	}
	spans := j.trace.Spans()
	switch format := r.URL.Query().Get("format"); format {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = telemetry.WriteChromeTrace(w, j.trace.TraceID(), spans) // a gone client is the only failure
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = telemetry.WriteJSONL(w, spans)
	default:
		writeError(w, http.StatusBadRequest, &api.Error{
			Code:    api.CodeBadRequest,
			Message: fmt.Sprintf("serve: unknown trace format %q (want chrome or jsonl)", format),
		})
	}
}
