package serve

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"

	"timekeeping/pkg/api"
)

// has reports whether list contains v.
func has(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}

func TestCapabilities(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})

	c, err := cl.Capabilities(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !has(c.Benches, "mcf") || !has(c.Benches, "gcc") {
		t.Errorf("benches %v missing suite members", c.Benches)
	}
	if !has(c.VictimFilters, "decay") || !has(c.Prefetchers, "timekeeping") {
		t.Errorf("mechanisms incomplete: victims %v, prefetchers %v", c.VictimFilters, c.Prefetchers)
	}
	foundFig1 := false
	for _, e := range c.Experiments {
		if e.ID == "fig1" && e.Title != "" {
			foundFig1 = true
		}
	}
	if !foundFig1 {
		t.Errorf("experiments %v missing fig1", c.Experiments)
	}
	if !c.Sampling {
		t.Error("sampling not advertised")
	}
	// This server was started with no events capture, no store, no
	// cluster: the service-state features must read off.
	if c.Events || c.Store || c.Cluster != nil {
		t.Errorf("service-state features wrongly advertised: %+v", c)
	}
}

func TestCapabilitiesAdvertiseEvents(t *testing.T) {
	_, _, cl := newTestServer(t, Config{Events: true})
	c, err := cl.Capabilities(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Events {
		t.Error("events capture enabled but not advertised")
	}
}

// TestRunEngineSelection: the deprecated engine field still accepts every
// name old clients send, and ignores it — each names the same run, so all
// of them resolve to one cache entry.
func TestRunEngineSelection(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})

	for i, eng := range []string{"", "auto", "fast", "reference"} {
		req := fastRun
		req.Engine = eng
		j, err := cl.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("engine %q: %v", eng, err)
		}
		want := api.CacheHit
		if i == 0 {
			want = api.CacheMiss
		}
		if j.Cache != want || j.Result == nil {
			t.Fatalf("engine %q: cache = %q, result %+v; want %q with a result", eng, j.Cache, j.Result, want)
		}
	}
}

func TestRunEngineErrors(t *testing.T) {
	_, _, cl := newTestServer(t, Config{Events: true})

	req := fastRun
	req.Engine = "turbo"
	_, err := cl.Run(context.Background(), req)
	ae := apiError(t, err)
	if ae.Code != api.CodeBadRequest || ae.HTTPStatus != http.StatusBadRequest || !has(ae.Accepted, "fast") {
		t.Fatalf("unknown engine: got %+v", ae)
	}

	// A legacy engine name no longer constrains the run: "fast" with event
	// capture runs and captures.
	req = eventsRun
	req.Engine = "fast"
	j, err := cl.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("fast+events: %v", err)
	}
	var buf bytes.Buffer
	if err := cl.JobEvents(context.Background(), j.ID, "jsonl", &buf); err != nil {
		t.Fatalf("download jsonl: %v", err)
	}
	if !strings.Contains(buf.String(), `"kind":"fill"`) {
		t.Fatalf("fast+events captured no fills:\n%.300s", buf.String())
	}
}
