package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"timekeeping/pkg/api"
)

// eventsRun is fastRun with event capture requested.
var eventsRun = api.RunRequest{Bench: "eon", Warmup: 2000, Refs: 8000, Events: true}

func TestEventsEndpoint(t *testing.T) {
	_, _, cl := newTestServer(t, Config{Events: true})

	j, err := cl.Run(context.Background(), eventsRun)
	if err != nil {
		t.Fatalf("run with events: %v", err)
	}
	if j.Status != api.StatusDone || j.Cache != api.CacheMiss {
		t.Fatalf("run = %+v", j)
	}

	// Chrome trace (the default format): valid JSON with traceEvents.
	var buf bytes.Buffer
	if err := cl.JobEvents(context.Background(), j.ID, "", &buf); err != nil {
		t.Fatalf("download trace: %v", err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// JSONL: one object per line, containing the run spans.
	buf.Reset()
	if err := cl.JobEvents(context.Background(), j.ID, "jsonl", &buf); err != nil {
		t.Fatalf("download jsonl: %v", err)
	}
	runSpan := `"name":"` + runSpanName() + `"`
	if !strings.Contains(buf.String(), runSpan) {
		t.Fatalf("jsonl lacks the %s span:\n%.300s", runSpan, buf.String())
	}

	// Unknown format: structured bad_request.
	err = cl.JobEvents(context.Background(), j.ID, "xml", io.Discard)
	if ae := apiError(t, err); ae.Code != api.CodeBadRequest {
		t.Fatalf("unknown format error = %+v", ae)
	}

	// Unknown job: 404.
	err = cl.JobEvents(context.Background(), "j999", "", io.Discard)
	if ae := apiError(t, err); ae.Code != api.CodeNotFound {
		t.Fatalf("unknown job error = %+v", ae)
	}
}

// runSpanName is the top run span's name: TK_AUDIT audits every exact
// run, and an audited run's top span is audited-run.
func runSpanName() string {
	if os.Getenv("TK_AUDIT") != "" {
		return "audited-run"
	}
	return "run"
}

// TestEventsJobOneTimeline: an events run records its run spans once, on
// the job's own trace beside the service stages, with no second copy of
// the resolve interval and trace-style span IDs throughout. The slow-
// request log still names a service stage: a simulator span is never the
// dominant stage.
func TestEventsJobOneTimeline(t *testing.T) {
	var logs syncBuffer
	_, _, cl := newTestServer(t, Config{
		Events:      true,
		SlowRequest: time.Nanosecond,
		Logger:      slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	j, err := cl.Run(context.Background(), eventsRun)
	if err != nil {
		t.Fatal(err)
	}

	tv := jobTrace(t, cl, j.ID)
	count := map[string]int{}
	resolves := 0
	for _, sp := range tv.Spans {
		count[sp.Name]++
		if strings.Contains(sp.Name, "resolve") {
			resolves++
		}
		if !isLowerHex(sp.SpanID, 16) {
			t.Errorf("span %q has ID %q, want 16 lowercase hex digits", sp.Name, sp.SpanID)
		}
	}
	for _, name := range []string{runSpanName(), "warmup", "measure"} {
		if count[name] != 1 {
			t.Errorf("span %q appears %d times, want once (have %v)", name, count[name], count)
		}
	}
	if resolves != 1 {
		t.Errorf("%d span names contain resolve, want 1 (have %v)", resolves, count)
	}

	var slow struct {
		Dominant string `json:"dominant_stage"`
	}
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, `"msg":"slow request"`) {
			if err := json.Unmarshal([]byte(line), &slow); err != nil {
				t.Fatal(err)
			}
		}
	}
	service := false
	for _, st := range stageNames {
		service = service || slow.Dominant == st
	}
	if !service {
		t.Fatalf("slow-request log names dominant stage %q, want a service stage %v:\n%s", slow.Dominant, stageNames, logs.String())
	}
}

// TestEventsTracingOff: with tracing off the job has no trace, but its
// event capture still carries the run spans.
func TestEventsTracingOff(t *testing.T) {
	_, _, cl := newTestServer(t, Config{Events: true, DisableTracing: true})
	j, err := cl.Run(context.Background(), eventsRun)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cl.JobEvents(context.Background(), j.ID, "jsonl", &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{runSpanName(), "warmup", "measure"} {
		if !strings.Contains(buf.String(), `"name":"`+name+`"`) {
			t.Errorf("events of a job on an untraced server lack the %s span:\n%.300s", name, buf.String())
		}
	}
}

// isLowerHex reports whether s is n lowercase hex digits.
func isLowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// TestEventsDisabledServer: requesting capture on a server without -events
// is a structured bad_request, and jobs that never asked for capture have
// no events resource.
func TestEventsDisabledServer(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})

	_, err := cl.Run(context.Background(), eventsRun)
	if ae := apiError(t, err); ae.Code != api.CodeBadRequest || ae.HTTPStatus != http.StatusBadRequest {
		t.Fatalf("events on disabled server error = %+v", ae)
	}

	j, err := cl.Run(context.Background(), fastRun)
	if err != nil {
		t.Fatal(err)
	}
	err = cl.JobEvents(context.Background(), j.ID, "", io.Discard)
	if ae := apiError(t, err); ae.Code != api.CodeBadRequest {
		t.Fatalf("no-capture job events error = %+v", ae)
	}
}

// TestEventsCacheHitEmpty: a run answered from the result cache never
// executed in its own job, so its capture downloads but holds no events —
// the documented caveat.
func TestEventsCacheHitEmpty(t *testing.T) {
	_, _, cl := newTestServer(t, Config{Events: true})

	if _, err := cl.Run(context.Background(), eventsRun); err != nil {
		t.Fatal(err)
	}
	j, err := cl.Run(context.Background(), eventsRun)
	if err != nil {
		t.Fatal(err)
	}
	if j.Cache != api.CacheHit {
		t.Fatalf("second run cache = %q, want hit", j.Cache)
	}
	var buf bytes.Buffer
	if err := cl.JobEvents(context.Background(), j.ID, "jsonl", &buf); err != nil {
		t.Fatalf("cache-hit capture download: %v", err)
	}
	if strings.Contains(buf.String(), `"kind"`) {
		t.Fatalf("cache-hit job captured events:\n%.300s", buf.String())
	}
}

// TestRequestAndJobLogging: the server logs every request and job
// transition with IDs through the configured slog handler.
func TestRequestAndJobLogging(t *testing.T) {
	var mu syncBuffer
	logger := slog.New(slog.NewJSONHandler(&mu, nil))
	_, _, cl := newTestServer(t, Config{Logger: logger})

	j, err := cl.Run(context.Background(), fastRun)
	if err != nil {
		t.Fatal(err)
	}
	out := mu.String()
	for _, want := range []string{
		`"msg":"job queued"`,
		`"msg":"job started"`,
		`"msg":"job finished"`,
		`"job_id":"` + j.ID + `"`,
		`"msg":"request"`,
		`"path":"/v1/run"`,
		`"request_id":"r1"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output lacks %s:\n%s", want, out)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the request middleware and
// job workers log concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
