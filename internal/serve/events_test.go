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

	// JSONL: one object per line, containing the run spans. TK_AUDIT
	// audits every run, and an audited run's top span is audited-run.
	buf.Reset()
	if err := cl.JobEvents(context.Background(), j.ID, "jsonl", &buf); err != nil {
		t.Fatalf("download jsonl: %v", err)
	}
	runSpan := `"span":"run"`
	if os.Getenv("TK_AUDIT") != "" {
		runSpan = `"span":"audited-run"`
	}
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
