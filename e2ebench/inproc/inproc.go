// Package inproc hosts the server under test inside the benchmark
// process for the traced run. It assembles the server exactly as
// navserve does, through the same public constructors and options, and
// wraps the two boundaries the benchmark owns: the HTTP handler and the
// store. Spans are kept in memory and written out when the run ends.
package inproc

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/e2ebench/loadgen"
	"repro/internal/analytics"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/storage"
)

// Span is one timed call at a boundary. Req is the generator's request
// id; a store call made outside any request (the write-behind flusher)
// has Req 0.
type Span struct {
	Req   uint64 `json:"req"`
	Name  string `json:"name"` // "serve", or the store method: "get", "put", ...
	Path  string `json:"path,omitempty"`
	Start int64  `json:"start_ns"` // since the host started
	Dur   int64  `json:"dur_ns"`
	Bytes int    `json:"bytes,omitempty"` // put: key plus value
}

// Host is a running in-process server.
type Host struct {
	Addr    string
	App     *core.App
	Handler *server.Server
	OpenDur time.Duration // storage.OpenFile, log replay included

	srv   *http.Server
	store storage.Store
	t0    time.Time

	mu    sync.Mutex
	spans []Span
	// reqOf maps a goroutine id to the request it is serving, so a
	// store call made on that goroutine becomes the request's child.
	reqOf sync.Map
}

// Start assembles and serves the server on a loopback port. args are
// navserve's dataset flags plus optionally -sync-persist. With traced
// false the decorators are left out, for the baseline that the tracing
// overhead is measured against.
func Start(args []string, storeDir, token string, traced bool) (*Host, error) {
	fs := flag.NewFlagSet("inproc", flag.ContinueOnError)
	var ds cli.DatasetFlags
	ds.Register(fs)
	syncPersist := fs.Bool("sync-persist", false, "")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	app, err := ds.BuildApp()
	if err != nil {
		return nil, err
	}
	h := &Host{App: app, t0: time.Now()}
	openFrom := time.Now()
	file, err := storage.OpenFile(storeDir)
	if err != nil {
		return nil, err
	}
	h.OpenDur = time.Since(openFrom)
	h.store = storage.Instrument(file)
	if traced {
		h.store = &timedStore{Store: h.store, h: h}
	}
	if err := app.ExportSnapshot(h.store); err != nil {
		h.store.Close()
		return nil, err
	}
	opts := []server.Option{
		server.WithSessionTTL(server.DefaultSessionTTL),
		server.WithSessionShards(server.DefaultSessionShards),
		server.WithPersistence(h.store),
		server.WithFlushInterval(server.DefaultFlushInterval),
		server.WithFlushBatch(server.DefaultFlushBatch),
		server.WithTrailLimit(server.DefaultTrailLimit),
		server.WithAPIToken(token),
		server.WithAnalytics(analytics.NewRecorder(analytics.RecorderConfig{SampleRate: 1})),
	}
	if *syncPersist {
		opts = append(opts, server.WithSyncPersistence())
	}
	h.Handler = server.New(app, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.Handler.Close()
		h.store.Close()
		return nil, err
	}
	h.Addr = ln.Addr().String()
	h.srv = &http.Server{Handler: h.Handler, ReadHeaderTimeout: 5 * time.Second}
	if traced {
		h.srv.Handler = http.HandlerFunc(h.serve)
	}
	h.srv.RegisterOnShutdown(h.Handler.StartJanitor(time.Minute))
	go func() {
		if err := h.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "inproc: serve:", err)
		}
	}()
	return h, nil
}

// Close stops serving, drains the session queue and closes the store,
// in navserve's shutdown order.
func (h *Host) Close() error {
	err := h.srv.Close()
	if cerr := h.Handler.Close(); err == nil {
		err = cerr
	}
	if cerr := h.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// serve is the timing decorator around Server.ServeHTTP.
func (h *Host) serve(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.ParseUint(r.Header.Get(loadgen.ReqHeader), 10, 64)
	gid := goid()
	if id != 0 {
		h.reqOf.Store(gid, id)
	}
	start := time.Now()
	h.Handler.ServeHTTP(w, r)
	d := time.Since(start)
	if id != 0 {
		h.reqOf.Delete(gid)
		h.record(Span{Req: id, Name: "serve", Path: r.URL.Path, Start: int64(start.Sub(h.t0)), Dur: int64(d)})
	}
}

func (h *Host) record(s Span) {
	h.mu.Lock()
	h.spans = append(h.spans, s)
	h.mu.Unlock()
}

// Spans returns and forgets every span recorded so far.
func (h *Host) Spans() []Span {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.spans
	h.spans = nil
	return s
}

// WriteSpans writes spans as JSON lines.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid parses the running goroutine's id from its stack header
// ("goroutine 123 [running]:"). It costs about a microsecond, which is
// part of the tracing overhead the traced run reports.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	const prefix = len("goroutine ")
	n := uint64(0)
	for i := prefix; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	return n
}

// timedStore is the timing decorator around every storage.Store
// method the server calls.
type timedStore struct {
	storage.Store
	h *Host
}

func (t *timedStore) span(name string, start time.Time, bytes int) {
	var req uint64
	if v, ok := t.h.reqOf.Load(goid()); ok {
		req = v.(uint64)
	}
	t.h.record(Span{Req: req, Name: name, Start: int64(start.Sub(t.h.t0)), Dur: int64(time.Since(start)), Bytes: bytes})
}

func (t *timedStore) Get(key string) ([]byte, error) {
	start := time.Now()
	v, err := t.Store.Get(key)
	t.span("get", start, 0)
	return v, err
}

func (t *timedStore) Put(key string, value []byte) error {
	start := time.Now()
	err := t.Store.Put(key, value)
	t.span("put", start, len(key)+len(value))
	return err
}

func (t *timedStore) Delete(key string) error {
	start := time.Now()
	err := t.Store.Delete(key)
	t.span("delete", start, 0)
	return err
}

func (t *timedStore) Scan(prefix string, fn func(key string, value []byte) error) error {
	start := time.Now()
	err := t.Store.Scan(prefix, fn)
	t.span("scan", start, 0)
	return err
}

func (t *timedStore) Generation() (uint64, error) {
	start := time.Now()
	g, err := t.Store.Generation()
	t.span("generation", start, 0)
	return g, err
}

func (t *timedStore) SetGeneration(gen uint64) error {
	start := time.Now()
	err := t.Store.SetGeneration(gen)
	t.span("set_generation", start, 0)
	return err
}
