package serve

import (
	"context"
	"net/http"
	"os"
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
	for _, eng := range []string{"auto", "fast", "reference"} {
		if !has(c.Engines, eng) {
			t.Errorf("engines %v missing %q", c.Engines, eng)
		}
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

func TestRunEngineSelection(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})

	req := fastRun
	req.Engine = "reference"
	j, err := cl.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if j.Result == nil || j.Result.Engine != "reference" {
		t.Fatalf("result engine = %+v, want reference", j.Result)
	}

	// The engine is not part of the cache key: the same configuration
	// requested under the other engine is a cache hit, and the view
	// records the engine that actually produced the stored result.
	req.Engine = "fast"
	j2, err := cl.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Cache != api.CacheHit {
		t.Fatalf("engine change broke cache keying: cache = %q, want hit", j2.Cache)
	}
	if j2.Result.Engine != "reference" {
		t.Fatalf("cached result engine = %q, want the producer's (reference)", j2.Result.Engine)
	}
}

func TestRunEngineErrors(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})

	req := fastRun
	req.Engine = "turbo"
	_, err := cl.Run(context.Background(), req)
	ae := apiError(t, err)
	if ae.HTTPStatus != http.StatusBadRequest || !has(ae.Accepted, "fast") {
		t.Fatalf("unknown engine: got %+v", ae)
	}

	// An explicit fast engine cannot carry reference-only
	// instrumentation; the request is rejected up front.
	req = fastRun
	req.Engine = "fast"
	req.Events = true
	_, err = cl.Run(context.Background(), req)
	ae = apiError(t, err)
	if ae.Code != api.CodeBadRequest || ae.HTTPStatus != http.StatusBadRequest {
		t.Fatalf("fast+events: got %+v", ae)
	}

	// Sampling is not such instrumentation: the fast engine runs it —
	// unless TK_AUDIT pins every run to the reference loop, which then
	// refuses an explicit fast engine for any run.
	req = fastRun
	req.Engine = "fast"
	req.Sampling = &api.SamplingPolicy{DetailedRefs: 1000, WarmRefs: 1000}
	j, err := cl.Run(context.Background(), req)
	if os.Getenv("TK_AUDIT") != "" {
		if err == nil {
			t.Fatal("fast+sampling ran under TK_AUDIT, which pins every run to the reference loop")
		}
		return
	}
	if err != nil {
		t.Fatalf("fast+sampling: %v", err)
	}
	if j.Result == nil || j.Result.Engine != "fast" || j.Result.Estimate == nil {
		t.Fatalf("fast+sampling: got %+v, want a sampled result from the fast engine", j.Result)
	}
}
