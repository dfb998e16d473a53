package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/e2ebench/inproc"
	"repro/e2ebench/loadgen"
)

// layers makes the per-layer report from three runs of the workload:
// a fresh navserve for the generator's own figures, then the server
// hosted in this process without and with the timing decorators, whose
// page_p50_ms difference is the tracing overhead. The replay follows.
func (r *runner) layers(spanDir string) (*report, error) {
	base, err := r.untraced(1, false)
	if err != nil {
		return nil, err
	}
	// The hosted server shares this process's heap: give it navserve's
	// default GC percent rather than the generator's.
	debug.SetGCPercent(100)
	rp := newReport()
	rp.attempted, rp.failed, rp.violations, rp.firstViolation = base.attempted, base.failed, base.violations, base.firstViolation
	rp.notes = base.notes
	plain, err := r.hosted(false)
	if err != nil {
		return nil, err
	}
	rp.add(plain.res)
	if err := plain.h.Close(); err != nil {
		return nil, err
	}
	t, err := r.hosted(true)
	if err != nil {
		return nil, err
	}
	defer t.h.Close()
	res, h, m0, m1, spans := t.res, t.h, t.m0, t.m1, t.spans
	rp.add(res)
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	if err := inproc.WriteSpans(filepath.Join(spanDir, r.w.name+".jsonl"), spans); err != nil {
		return nil, err
	}
	rep := inproc.RunReplay(h.App, res.Visitors)

	d := func(series string) float64 { return m1[series] - m0[series] }
	sum := func(prefix string) float64 {
		t := 0.0
		for k := range m1 {
			if strings.HasPrefix(k, prefix) {
				t += d(k)
			}
		}
		return t
	}
	mean := func(hist, labels string, scale float64) float64 {
		n := d(hist + "_count" + labels)
		if n == 0 {
			return 0
		}
		return d(hist+"_sum"+labels) / n * scale
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	const dur = "navserve_http_request_duration_seconds"

	rp.set("bench.lag_p99_ms", r.lagP99, "ms")
	rp.set("bench.client_cpu_us_per_req", r.clientCPU, "us")

	handlerPage := mean(dur, `{route="page"}`, 1e6)
	rp.set("server.handler_us.page", handlerPage, "us")
	rp.set("server.handler_us.go", mean(dur, `{route="traversal"}`, 1e6), "us")
	rp.set("server.handler_us.api", mean(dur, `{route="api"}`, 1e6), "us")
	rp.set("server.residual_us", res.PageSend.Mean()*1e3-handlerPage, "us")
	self, puts, gets, putDur, getDur, putBytes := spanTotals(spans)
	rp.set("server.self_us", self, "us")
	rp.set("server.flush_writes_per_save", ratio(d("navserve_flush_writes_total"), float64(res.Saves)), "ratio")
	rp.set("server.flush_batch_ms", mean("navserve_flush_batch_duration_seconds", "", 1e3), "ms")
	rp.set("server.flush_queue_max", float64(t.queueMax), "count")
	rp.set("server.shed", sum("navserve_http_shed_total"), "count")
	rp.set("server.persist_errors", d("navserve_persist_errors_total"), "count")
	rp.set("server.persist_retries", d("navserve_persist_retries_total"), "count")
	rp.set("server.not_modified_ratio",
		ratio(d(`navserve_http_not_modified_total{route="page"}`), sum(`navserve_http_requests_total{route="page"`)), "ratio")
	rp.set("server.sessions_created", d("navserve_sessions"), "count")

	hits, misses, joins := d("navcore_page_cache_hits_total"), d("navcore_page_cache_misses_total"), d("navcore_page_cache_joins_total")
	rp.set("core.cache_hit_ratio", ratio(hits, hits+misses+joins), "ratio")
	rp.set("core.cache_misses", misses, "count")
	rp.set("core.cache_joins", joins, "count")
	rp.set("core.weave_us", rep.WeaveUS, "us")
	rp.set("core.weave_allocs", rep.WeaveAllocs, "allocs")
	rp.set("core.hit_render_ns", rep.HitRenderNS, "ns")
	rp.set("core.invalidated_per_mutation", ratio(d("navcore_pages_invalidated_total"), float64(res.Mutations)), "pages")
	rp.set("core.rebuild_ms", mean("navcore_rebuild_duration_seconds", "", 1e3), "ms")

	rp.set("navigation.step_ns", rep.StepNS, "ns")
	rp.set("navigation.encode_us", rep.EncodeUS, "us")
	rp.set("navigation.restore_us", rep.RestoreUS, "us")

	rp.set("storage.put_us", ratio(putDur, float64(puts)), "us")
	rp.set("storage.get_us", ratio(getDur, float64(gets)), "us")
	rp.set("storage.puts", float64(puts), "count")
	rp.set("storage.gets", float64(gets), "count")
	rp.set("storage.log_bytes_per_put", ratio(putBytes, float64(puts)), "bytes")
	rp.set("storage.open_s", h.OpenDur.Seconds(), "s")

	rp.set("analytics.recorded", d("navserve_analytics_recorded"), "count")
	rp.set("analytics.dropped", d("navserve_analytics_dropped"), "count")

	traced, untraced := res.Page.Quantile(0.5), plain.res.Page.Quantile(0.5)
	rp.set("obs.trace_overhead_pct", (traced-untraced)/untraced*100, "%")
	rp.samples["traced_page"] = res.Page.Len()
	rp.samples["untraced_page"] = plain.res.Page.Len()
	rp.samples["spans"] = len(spans)
	rp.notes = append(rp.notes, fmt.Sprintf("in-process page_p50 %.4f ms traced, %.4f ms untraced", traced, untraced))
	return rp, nil
}

// hostedRun is one open-loop run against the in-process host.
type hostedRun struct {
	h        *inproc.Host
	res      *loadgen.Result
	m0, m1   map[string]float64 // /metrics before and after
	spans    []inproc.Span
	queueMax int // deepest write-behind queue seen
}

// hosted runs the workload's open loop against a fresh in-process
// host over a copy of the prelude's store. The caller closes the host.
func (r *runner) hosted(traced bool) (*hostedRun, error) {
	sd := filepath.Join(r.dir, fmt.Sprintf("hosted-%v", traced))
	if err := copyDir(r.preludeDir, sd); err != nil {
		return nil, err
	}
	h, err := inproc.Start(r.w.serverArgs, sd, token, traced)
	if err != nil {
		return nil, err
	}
	out := &hostedRun{h: h}
	h.Spans() // start-up store calls are not part of the run
	site, err := loadgen.FetchSite(h.Addr, token)
	if err != nil {
		h.Close()
		return nil, err
	}
	if out.m0, err = scrape(h.Addr); err != nil {
		h.Close()
		return nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if q, _ := h.Handler.PersistStats(); q > out.queueMax {
					out.queueMax = q
				}
			}
		}
	}()
	opts, sched := r.openLoop(h.Addr, site)
	opts.Tag, opts.Record = traced, traced
	out.res = loadgen.Run(opts, sched)
	close(stop)
	wg.Wait()
	if out.m1, err = scrape(h.Addr); err != nil {
		h.Close()
		return nil, err
	}
	out.spans = h.Spans()
	return out, nil
}

// spanTotals folds the traced run's spans: the mean self time of a
// served request (its serve span minus the store calls made on its
// goroutine), and count, total microseconds and bytes of store calls.
func spanTotals(spans []inproc.Span) (selfUS float64, puts, gets int, putUS, getUS, putBytes float64) {
	child := map[uint64]int64{}
	for _, s := range spans {
		switch s.Name {
		case "serve":
			continue
		case "put":
			puts++
			putUS += float64(s.Dur) / 1e3
			putBytes += float64(s.Bytes)
		case "get":
			gets++
			getUS += float64(s.Dur) / 1e3
		}
		if s.Req != 0 {
			child[s.Req] += s.Dur
		}
	}
	var self float64
	n := 0
	for _, s := range spans {
		if s.Name == "serve" {
			self += float64(s.Dur-child[s.Req]) / 1e3
			n++
		}
	}
	if n > 0 {
		selfUS = self / float64(n)
	}
	return selfUS, puts, gets, putUS, getUS, putBytes
}
