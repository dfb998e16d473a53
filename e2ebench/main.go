// Command e2ebench is the repository's end-to-end benchmark. Each run
// boots a fresh navserve, drives it open-loop from one generator
// process, checks every answer, and prints one JSON result line.
//
//	e2ebench -navserve BIN --workload museum-browse --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// prints the per-layer metrics of a traced run of the same workload:
// the server is hosted in this process through navserve's public
// constructors, with timing decorators around its handler and store.
// See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/e2ebench/loadgen"
)

const (
	warmup = 2 * time.Second // open-loop time before sampling starts
	drain  = 5 * time.Second // how long late steps may still be sent
	peakOf = 8 * time.Second // closed-loop phase; peak_rps is the mean of its quiet seconds
	window = time.Second     // timings are kept per second and reported from the quiet ones
	// setup_s is the median of several set-ups: at least minBoots, then
	// more until maxBoots or bootBudget of set-up time.
	minBoots, maxBoots = 5, 21
	bootBudget         = 4 * time.Second
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinFlag {
		spin()
		return
	}
	// The spinner dies with the thread that started it (Pdeathsig):
	// keep that thread for the whole run.
	runtime.LockOSThread()
	// The generator allocates per request; collecting less often keeps
	// its own pauses out of the latencies it measures.
	debug.SetGCPercent(400)
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "open-loop measurement window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	bin := flag.String("navserve", "", "navserve binary")
	work := flag.String("work", ".bench_build/work", "scratch directory for stores")
	commit := flag.String("commit", "unknown", "source revision, recorded in the result")
	spanDir := flag.String("spans", ".bench_build/trace", "where the traced run writes its spans")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("need -navserve, --seconds >= 1 and --trace 0|1")
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	spinner, err := startSpinner()
	if err != nil {
		return fmt.Errorf("spinner: %w", err)
	}
	defer stopSpinner(spinner)
	r := &runner{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, bin: *bin, dir: dir,
		workers: runtime.NumCPU(), spinner: spinner.Process.Pid}
	if err := r.prelude(); err != nil {
		return fmt.Errorf("prelude: %w", err)
	}
	var out *report
	if *trace == 0 {
		out, err = r.untraced(maxBoots, true)
	} else {
		out, err = r.layers(*spanDir)
	}
	if err != nil {
		return err
	}
	out.add(r.prel)
	if *trace == 0 {
		out.set("success_ratio", 1-float64(out.failed)/float64(out.attempted), "ratio")
		out.samples["success_ratio"] = int(out.attempted)
	}
	meta := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": *commit, "network": "loopback", "workers": r.workers,
		"samples": out.samples, "notes": out.notes,
	}
	if b, err := json.Marshal(meta); err == nil {
		fmt.Println(string(b))
	}
	if err := out.print(); err != nil {
		return err
	}
	if out.violations > 0 {
		// A wrong answer fails the run, whatever reads the result line.
		return fmt.Errorf("%d correctness violations, first: %s", out.violations, out.firstViolation)
	}
	return nil
}

// runner holds one invocation's state.
type runner struct {
	w       workload
	seed    int64
	window  time.Duration
	bin     string
	dir     string
	workers int
	spinner int // the spinner's pid; its CPU time is the benchmark's own

	preludeDir string
	returners  []loadgen.Returner
	prel       *loadgen.Result

	// From the last untraced run, for the traced run's report.
	lagP99, clientCPU float64
}

// report is the final result line plus what the meta line records.
type report struct {
	attempted, failed, violations uint64
	firstViolation                string
	metrics                       map[string]metric
	samples                       map[string]int
	notes                         []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

// add folds a generator result's request counts into the report.
func (rp *report) add(res *loadgen.Result) {
	rp.attempted += res.Attempted
	rp.failed += res.Failed
	if rp.violations == 0 {
		rp.firstViolation = res.FirstViolation
	}
	rp.violations += res.Violations
}

func (rp *report) set(name string, v float64, unit string) {
	rp.metrics[name] = metric{Value: v, Unit: unit}
}

// quantile sets a latency metric from exact samples and records how
// many samples it rests on.
func (rp *report) quantile(name string, s *loadgen.Samples, q float64) {
	rp.set(name, s.Quantile(q), "ms")
	rp.samples[name] = s.Len()
}

func (rp *report) print() error {
	for name, m := range rp.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value (no samples)", name)
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rp.violations == 0, rp.attempted, rp.failed, rp.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// prelude runs a first server instance: the workload's returning
// visitors take short walks on it, their histories are read back once
// every write has reached the store, and the instance is SIGKILLed.
// Every later instance of the run replays that store at boot.
func (r *runner) prelude() error {
	r.preludeDir = filepath.Join(r.dir, "prelude")
	p, _, err := boot(r.bin, r.w, r.preludeDir)
	if err != nil {
		return err
	}
	defer p.kill()
	site, err := loadgen.FetchSite(p.addr, token)
	if err != nil {
		return err
	}
	plan := r.w.plan
	plan.Seed = r.seed + 1<<32
	res := loadgen.Run(loadgen.Options{Addr: p.addr, Token: token, Site: site, Workers: r.workers,
		Closed: time.Minute, Record: true}, plan.Visitors(site, 0, r.w.returners))
	r.prel = res
	if err := settle(p.addr); err != nil {
		return err
	}
	sort.Slice(res.Visitors, func(i, j int) bool { return res.Visitors[i].ID < res.Visitors[j].ID })
	for _, v := range res.Visitors {
		ret, err := history(p.addr, v.Cookie)
		if err != nil {
			return err
		}
		if len(ret.Entries) > 0 {
			r.returners = append(r.returners, ret)
		}
	}
	return nil
}

// settle waits until the write-behind queue and the retry queue are
// empty, so every session the prelude wrote is in the store.
func settle(addr string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		m, err := scrape(addr)
		if err == nil && m["navserve_flush_queue_depth"] == 0 && m["navserve_persist_retry_queue_depth"] == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("write-behind queue not empty after 20s (%v)", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// history reads one visitor's history as the server reports it.
func history(addr, cookie string) (loadgen.Returner, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/history", nil)
	if err != nil {
		return loadgen.Returner{}, err
	}
	req.Header.Set("Cookie", "navsession="+cookie)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return loadgen.Returner{}, err
	}
	defer resp.Body.Close()
	var h struct {
		Entries []loadgen.Entry `json:"entries"`
		Cursor  int             `json:"cursor"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return loadgen.Returner{}, fmt.Errorf("GET /history: %w", err)
	}
	return loadgen.Returner{Cookie: cookie, Entries: h.Entries, Cursor: h.Cursor}, nil
}

// openLoop is the workload's schedule and generator options against
// addr, sampling the window after the warm-up.
func (r *runner) openLoop(addr string, site *loadgen.Site) (loadgen.Options, []loadgen.Session) {
	plan := r.w.plan
	plan.Seed, plan.Horizon, plan.Returners = r.seed, warmup+r.window, len(r.returners)
	return loadgen.Options{Addr: addr, Token: token, Site: site, Workers: r.workers,
		Start: time.Now().Add(20 * time.Millisecond), MeasureFrom: warmup, MeasureTo: warmup + r.window,
		Drain: drain, Window: window, Returners: r.returners}, plan.Schedule(site)
}

// untraced is one fresh-navserve run: up to n set-ups over copies of
// the prelude's store (the last one serves the run), the open-loop
// phase, and with peak the closed-loop phase.
func (r *runner) untraced(n int, peak bool) (*report, error) {
	rp := newReport()
	var setups []float64
	var p *proc
	var spent time.Duration
	for i := 0; ; i++ {
		sd := filepath.Join(r.dir, fmt.Sprintf("store-%d", i))
		if err := copyDir(r.preludeDir, sd); err != nil {
			return nil, err
		}
		q, d, err := boot(r.bin, r.w, sd)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		spent += d
		if i+1 >= n || (i+1 >= minBoots && spent >= bootBudget) {
			p = q
			break
		}
		q.kill()
		if err := os.RemoveAll(sd); err != nil {
			return nil, err
		}
	}
	defer p.stop()
	site, err := loadgen.FetchSite(p.addr, token)
	if err != nil {
		return nil, err
	}
	pid := p.cmd.Process.Pid
	opts, sched := r.openLoop(p.addr, site)
	from := opts.Start.Add(opts.MeasureFrom)
	load := startHostLoad(from, window, pid, os.Getpid(), r.spinner)
	ru0 := rusage()
	res := loadgen.Run(opts, sched)
	clientCPU := rusage() - ru0
	time.Sleep(time.Until(from.Add(r.window + 10*time.Millisecond)))
	open := load.result()
	rp.add(res)
	// The peak resident set is read at the end of the open loop, whose
	// sessions the schedule fixes; the closed loop creates as many as
	// its throughput allows.
	hwm, err := p.hwm()
	if err != nil {
		return nil, err
	}
	if peak {
		pk, note := r.closedLoop(p, site)
		rp.add(pk)
		rp.notes = append(rp.notes, note)
	}
	if err := p.stop(); err != nil {
		return nil, fmt.Errorf("navserve shutdown: %w", err)
	}

	// Latencies and server CPU come from the quiet windows only: the
	// ones in which the rest of the host left the benchmark alone.
	quiet := quietWindows(open, len(res.Windows))
	var page, step, mutate, resume loadgen.Samples
	var pageWins, stepWins []loadgen.Samples
	var ticks int64
	var reqs uint64
	for _, i := range quiet {
		w := &res.Windows[i]
		page.Merge(&w.Page)
		step.Merge(&w.Step)
		mutate.Merge(&w.Mutate)
		resume.Merge(&w.Resume)
		pageWins, stepWins = append(pageWins, w.Page), append(stepWins, w.Step)
		if i < len(open) {
			ticks += open[i].serverTicks
			reqs += w.Requests
		}
	}
	rp.set("setup_s", loadgen.Median(setups), "s")
	rp.samples["setup_s"] = len(setups)
	rp.set("page_p50_ms", windowQuantile(pageWins, 0.5), "ms")
	rp.samples["page_p50_ms"] = page.Len()
	rp.set("step_p50_ms", windowQuantile(stepWins, 0.5), "ms")
	rp.samples["step_p50_ms"] = step.Len()
	rp.quantile("mutate_p50_ms", orAll(&mutate, &res.Mutate), 0.5)
	rp.quantile("resume_p50_ms", orAll(&resume, &res.Resume), 0.5)
	rp.set("server_cpu_us_per_req", float64(ticks)*1e4/float64(reqs), "us")
	rp.samples["server_cpu_us_per_req"] = int(reqs)
	rp.set("rss_peak_mb", hwm, "MiB")
	rp.samples["lag"] = res.Lag.Len()

	var shares []string
	for _, w := range open {
		shares = append(shares, strconv.FormatFloat(w.foreign, 'f', 3, 64))
	}
	r.lagP99 = res.Lag.Quantile(0.99)
	r.clientCPU = float64(clientCPU) / float64(time.Microsecond) / float64(res.Completed)
	rp.notes = append(rp.notes,
		fmt.Sprintf("offered %.0f req/s over the window", float64(res.Attempted)/(warmup+r.window).Seconds()),
		fmt.Sprintf("generator lag p99 %.3f ms, client cpu %.1f us/req", r.lagP99, r.clientCPU),
		fmt.Sprintf("foreign CPU share per window [%s]; %d quiet windows reported", strings.Join(shares, " "), len(quiet)))
	// Tails are reported here rather than as gated metrics: on a small
	// shared host they follow the neighbours' load by more than any
	// useful bound between runs, quiet windows or not. The latency limit
	// applies to the all-sample p99.
	p99 := res.Page.Quantile(0.99)
	verdict := "within"
	if p99 > r.w.pageP99Limit {
		verdict = "EXCEEDS"
	}
	rp.notes = append(rp.notes,
		fmt.Sprintf("quiet-window p95: page %.3f ms, step %.3f ms", windowQuantile(pageWins, 0.95), windowQuantile(stepWins, 0.95)),
		fmt.Sprintf("page p99 %.3f ms over %d samples, %s the %.0f ms limit; step p99 %.3f ms over %d",
			p99, res.Page.Len(), verdict, r.w.pageP99Limit, res.Step.Quantile(0.99), res.Step.Len()))
	return rp, nil
}

// closedLoop drives p closed-loop for peakOf. Its note for the meta
// line gives peak_rps, the mean completions of its quiet seconds. peak_rps is
// not gated: the host's neighbours move it by more than any bound of
// 25% (see README.md), and server_cpu_us_per_req gates the cost that
// sets it.
func (r *runner) closedLoop(p *proc, site *loadgen.Site) (*loadgen.Result, string) {
	plan := r.w.plan
	plan.Seed = r.seed + 2<<32
	load := startHostLoad(time.Now(), time.Second, p.cmd.Process.Pid, os.Getpid(), r.spinner)
	res := loadgen.Run(loadgen.Options{Addr: p.addr, Token: token, Site: site, Workers: r.workers,
		Closed: peakOf}, plan.Visitors(site, 0, 20000))
	var done uint64
	quiet := quietWindows(load.result(), len(res.PerSecond))
	for _, i := range quiet {
		done += res.PerSecond[i]
	}
	// The mean, not the median: a file-store compaction stalls the
	// closed loop for part of a second every few seconds, and its share
	// of the time belongs in the throughput.
	return res, fmt.Sprintf("peak_rps %.1f 1/s over %d quiet closed-loop seconds; completions per second %v",
		float64(done)/float64(len(quiet)), len(quiet), res.PerSecond)
}

// orAll returns quiet unless it is empty, then all: a rare kind of step
// may have no sample in the quiet windows.
func orAll(quiet, all *loadgen.Samples) *loadgen.Samples {
	if quiet.Len() == 0 {
		return all
	}
	return quiet
}

// windowQuantile is the median over the sampling windows of each
// window's q-quantile. A burst of noise from outside the benchmark
// moves one window's tail, not the median of several. Windows too
// sparse to have a sample beyond their q-quantile are left out; if all
// are, the quantile of every sample is returned.
func windowQuantile(ws []loadgen.Samples, q float64) float64 {
	var qs []float64
	var all loadgen.Samples
	for i := range ws {
		all.Merge(&ws[i])
		if float64(ws[i].Len())*(1-q) >= 1 {
			qs = append(qs, ws[i].Quantile(q))
		}
	}
	if len(qs) == 0 {
		return all.Quantile(q)
	}
	return loadgen.Median(qs)
}

// rusage returns this process's user+system CPU time.
func rusage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
