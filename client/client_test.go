package client_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/obs"
	"repro/internal/server"
)

const testToken = "client-test-token"

func testClient(t *testing.T, opts ...server.Option) (*client.Client, *core.App, *httptest.Server) {
	t.Helper()
	app, err := core.NewApp(museum.PaperStore(), museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(app, append([]server.Option{server.WithAPIToken(testToken)}, opts...)...)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, testToken)
	if err != nil {
		t.Fatal(err)
	}
	return c, app, ts
}

// TestClientStructureSwap drives the paper's maintenance change through
// the typed client: GET the structure, swap it, observe the swap live.
func TestClientStructureSwap(t *testing.T) {
	c, app, _ := testClient(t)
	ctx := context.Background()

	st, err := c.Structure(ctx, "ByAuthor")
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec.Kind != "indexed-guided-tour" {
		t.Fatalf("initial structure = %+v", st.Spec)
	}

	res, err := c.SetStructureKind(ctx, "ByAuthor", "circular-guided-tour")
	if err != nil {
		t.Fatal(err)
	}
	if res.Family != "ByAuthor" || res.DroppedPages < 0 {
		t.Errorf("mutation result = %+v", res)
	}
	if kind := app.Resolved().Context("ByAuthor:picasso").Def.Access.Kind(); kind != "guided-tour" {
		t.Errorf("live structure = %q, want guided-tour", kind)
	}
	st, err = c.Structure(ctx, "ByAuthor")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Spec.Circular || st.Text != "circular-guided-tour" {
		t.Errorf("structure after swap = %+v text=%q", st.Spec, st.Text)
	}

	// A full spec round trip: GET, tweak, PUT back.
	st.Spec.Circular = false
	if _, err := c.SetStructure(ctx, "ByAuthor", *st.Spec); err != nil {
		t.Fatal(err)
	}
	gt, ok := app.Resolved().Context("ByAuthor:picasso").Def.Access.(navigation.GuidedTour)
	if !ok || gt.Circular {
		t.Errorf("live structure after spec edit = %#v", app.Resolved().Context("ByAuthor:picasso").Def.Access)
	}
}

// TestClientModel: the model read carries the same artifact the server
// renders, and the families' specs decode.
func TestClientModel(t *testing.T) {
	c, app, _ := testClient(t)
	m, err := c.Model(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.SpecText != app.View().SpecText {
		t.Errorf("client model spec text differs from the live artifact")
	}
	if len(m.Families) != 2 || m.Families[0].Access == nil {
		t.Fatalf("families = %+v", m.Families)
	}
	if _, err := navigation.DecodeSpec(m.Families[0].Access); err != nil {
		t.Errorf("family spec does not decode: %v", err)
	}
	contexts, err := c.Contexts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(contexts) != 4 {
		t.Errorf("contexts = %d, want 4 (two painters, two movements)", len(contexts))
	}
}

// TestClientErrors: non-2xx responses surface as typed *APIError with
// the server's structured message.
func TestClientErrors(t *testing.T) {
	c, _, ts := testClient(t)
	ctx := context.Background()

	_, err := c.Structure(ctx, "Nope")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("unknown family error = %v", err)
	}
	if _, err := c.SetStructure(ctx, "ByAuthor", client.StructureSpec{Kind: "teleporter"}); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Errorf("bad spec error = %v", err)
	}
	if !strings.Contains(apiErr.Message, "teleporter") {
		t.Errorf("error message lost the structured detail: %q", apiErr.Message)
	}
	// Adapt without a recorder conflicts.
	if _, err := c.Adapt(ctx); !errors.As(err, &apiErr) || apiErr.Status != 409 {
		t.Errorf("adapt error = %v", err)
	}
	// A wrong token is a 401 for every call.
	bad, err := client.New(ts.URL, "wrong")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Model(ctx); !errors.As(err, &apiErr) || apiErr.Status != 401 {
		t.Errorf("wrong-token error = %v", err)
	}
}

// TestClientDocumentAndStylesheet exercises the remaining write surface
// end to end.
func TestClientDocumentAndStylesheet(t *testing.T) {
	c, app, _ := testClient(t)
	ctx := context.Background()

	res, err := c.PatchDocument(ctx, "guitar", map[string]string{"technique": "Sheet metal"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Document != "guitar.xml" {
		t.Errorf("patch result = %+v", res)
	}
	if got := app.Store().Get("guitar").Attr("technique"); got != "Sheet metal" {
		t.Errorf("technique = %q", got)
	}

	src := `<s:stylesheet xmlns:s="urn:repro:style">
  <s:template match="Painting">
    <html><body><h1><s:value-of select="title"/></h1></body></html>
  </s:template>
</s:stylesheet>`
	if _, err := c.SetStylesheet(ctx, src); err != nil {
		t.Fatal(err)
	}
	got, err := c.Stylesheet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != src {
		t.Errorf("stylesheet round trip lost bytes")
	}
	if _, err := c.ClearStylesheet(ctx); err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	if _, err := c.Stylesheet(ctx); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Errorf("stylesheet after clear = %v, want 404", err)
	}
}

// TestClientEventsAndMetrics: a mutation driven through the client
// shows up in the events trace, and the metrics exposition reads back
// without a token (the endpoint is bearer-exempt like /healthz).
func TestClientEventsAndMetrics(t *testing.T) {
	c, _, ts := testClient(t)
	ctx := context.Background()

	res, err := c.SetStructureKind(ctx, "ByAuthor", "menu")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := c.Events(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Events) != 1 || ev.Total == 0 {
		t.Fatalf("events = %+v", ev)
	}
	e := ev.Events[0]
	if e.Kind != "structure-swap" || e.Target != "ByAuthor" {
		t.Errorf("event = %+v, want structure-swap of ByAuthor", e)
	}
	if e.PagesInvalidated != res.DroppedPages || e.CacheGeneration != res.CacheGeneration {
		t.Errorf("event blast radius %+v disagrees with mutation result %+v", e, res)
	}

	anon, err := client.New(ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	text, err := anon.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE navserve_http_requests_total counter",
		"navcore_rebuilds_total",
		"navserve_cache_generation",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// But the events trace is control-plane surface: no token, no trace.
	var apiErr *client.APIError
	if _, err := anon.Events(ctx, 0); !errors.As(err, &apiErr) || apiErr.Status != 401 {
		t.Errorf("tokenless events = %v, want 401", err)
	}
}

// TestClientAdaptAndGraph: recorded traffic reaches the graph export
// and a forced adapt cycle derives structures.
func TestClientAdaptAndGraph(t *testing.T) {
	rec := analytics.NewRecorder(analytics.RecorderConfig{})
	c, _, _ := testClient(t, server.WithAnalytics(rec),
		server.WithDeriveConfig(analytics.Config{MinHops: 1, LandmarkShare: 0.35}))
	ctx := context.Background()

	for i := 0; i < 20; i++ {
		rec.Record("ByAuthor:picasso", analytics.EntryFrom, "guernica")
		rec.Record("ByAuthor:picasso", "guernica", "avignon")
	}
	g, err := c.AnalyticsGraph(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cg, ok := g.Contexts["ByAuthor:picasso"]
	if !ok || cg.Hops != 40 || len(cg.Edges) != 1 || cg.Edges[0].Count != 20 {
		t.Fatalf("graph context = %+v", cg)
	}

	res, err := c.Adapt(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.DerivedStructures == 0 || res.AdaptGeneration != 1 {
		t.Errorf("adapt result = %+v", res)
	}
	// The derived structure reads back as an adaptive-tour spec.
	st, err := c.Structure(ctx, "ByAuthor")
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec.Kind != "adaptive-tour" || st.Spec.Fallback == nil ||
		st.Spec.Fallback.Kind != "indexed-guided-tour" {
		t.Errorf("derived spec = %+v", st.Spec)
	}
	if plan, ok := st.Spec.Plans["ByAuthor:picasso"]; !ok || len(plan.Order) == 0 {
		t.Errorf("derived plans = %+v", st.Spec.Plans)
	}
}

// TestClientTraces: the client propagates W3C trace context on every
// call, so its own control-plane requests land in the server's trace
// ring joinable by parent span — and Traces reads them back typed.
func TestClientTraces(t *testing.T) {
	c, _, ts := testClient(t, server.WithTracing(obs.NewTracer(obs.TraceConfig{
		SampleEvery: 1, RingSize: 16,
	})))
	ctx := context.Background()

	if _, err := c.Model(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := c.Traces(ctx, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Enabled || res.Total == 0 {
		t.Fatalf("traces = %+v, want enabled with kept traces", res)
	}
	var modelTrace *client.Trace
	for i := range res.Traces {
		if res.Traces[i].Path == "/api/v1/model" {
			modelTrace = &res.Traces[i]
			break
		}
	}
	if modelTrace == nil {
		t.Fatalf("model call not traced; ring holds %d traces", len(res.Traces))
	}
	if modelTrace.Route != "api" || len(modelTrace.TraceID) != 32 {
		t.Errorf("model trace = route %q id %q", modelTrace.Route, modelTrace.TraceID)
	}
	// The client sent a traceparent, so the server's span records the
	// client's span as its parent.
	if len(modelTrace.ParentSpanID) != 16 {
		t.Errorf("parent_span_id = %q, want the client's 16-hex span id", modelTrace.ParentSpanID)
	}

	// limit and slow filters pass through.
	limited, err := c.Traces(ctx, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Traces) != 1 {
		t.Errorf("Traces(1, false) returned %d traces", len(limited.Traces))
	}
	slow, err := c.Traces(ctx, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range slow.Traces {
		if !tr.Slow {
			t.Errorf("slow-only listing carries non-slow trace %+v", tr)
		}
	}

	// A structured error carries the failing request's trace id.
	wrong, err := client.New(ts.URL, "wrong-token")
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	if _, err := wrong.Model(ctx); !errors.As(err, &apiErr) || apiErr.Status != 401 {
		t.Fatalf("wrong-token model = %v, want 401", err)
	}
	if len(apiErr.TraceID) != 32 {
		t.Errorf("APIError.TraceID = %q, want the 32-hex trace id", apiErr.TraceID)
	}
}
