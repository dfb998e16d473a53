package obs

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestGoldenExposition pins the exact exposition output for a small
// registry: family ordering, HELP/TYPE lines, label rendering,
// cumulative histogram buckets, +Inf, _sum and _count.
func TestGoldenExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_requests_total", "Requests served.", "route", "page", "code", "2xx").Add(3)
	r.Counter("demo_requests_total", "Requests served.", "route", "doc", "code", "2xx").Inc()
	r.Histogram("demo_latency_seconds", "Serve latency.").ObserveNanos(1000)
	r.GaugeFunc("demo_queue_depth", "Dirty sessions awaiting flush.", func() float64 { return 4 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP demo_latency_seconds Serve latency.
# TYPE demo_latency_seconds histogram
demo_latency_seconds_bucket{le="2.56e-07"} 0
demo_latency_seconds_bucket{le="5.12e-07"} 0
demo_latency_seconds_bucket{le="1.024e-06"} 1
demo_latency_seconds_bucket{le="2.048e-06"} 1
demo_latency_seconds_bucket{le="4.096e-06"} 1
demo_latency_seconds_bucket{le="8.192e-06"} 1
demo_latency_seconds_bucket{le="1.6384e-05"} 1
demo_latency_seconds_bucket{le="3.2768e-05"} 1
demo_latency_seconds_bucket{le="6.5536e-05"} 1
demo_latency_seconds_bucket{le="0.000131072"} 1
demo_latency_seconds_bucket{le="0.000262144"} 1
demo_latency_seconds_bucket{le="0.000524288"} 1
demo_latency_seconds_bucket{le="0.001048576"} 1
demo_latency_seconds_bucket{le="0.002097152"} 1
demo_latency_seconds_bucket{le="0.004194304"} 1
demo_latency_seconds_bucket{le="0.008388608"} 1
demo_latency_seconds_bucket{le="0.016777216"} 1
demo_latency_seconds_bucket{le="0.033554432"} 1
demo_latency_seconds_bucket{le="0.067108864"} 1
demo_latency_seconds_bucket{le="0.134217728"} 1
demo_latency_seconds_bucket{le="0.268435456"} 1
demo_latency_seconds_bucket{le="0.536870912"} 1
demo_latency_seconds_bucket{le="1.073741824"} 1
demo_latency_seconds_bucket{le="2.147483648"} 1
demo_latency_seconds_bucket{le="4.294967296"} 1
demo_latency_seconds_bucket{le="8.589934592"} 1
demo_latency_seconds_bucket{le="+Inf"} 1
demo_latency_seconds_sum 1e-06
demo_latency_seconds_count 1
# HELP demo_queue_depth Dirty sessions awaiting flush.
# TYPE demo_queue_depth gauge
demo_queue_depth 4
# HELP demo_requests_total Requests served.
# TYPE demo_requests_total counter
demo_requests_total{route="doc",code="2xx"} 1
demo_requests_total{route="page",code="2xx"} 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestGetOrCreate: same name+labels yields the same series; a name
// reused across types panics.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "h", "k", "v")
	b := r.Counter("x_total", "h", "k", "v")
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	if c := r.Counter("x_total", "h", "k", "w"); c == a {
		t.Error("distinct labels returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("type collision did not panic")
		}
	}()
	r.Histogram("x_total", "h")
}

// TestCounterConcurrent: sharded adds must not lose increments.
func TestCounterConcurrent(t *testing.T) {
	c := newCounter()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("Value = %d, want %d", got, workers*per)
	}
}

// TestHistogramBucketIndex pins the boundary math: an observation of
// exactly bound(i) lands in bucket i, one more nanosecond in i+1, and
// anything past the last finite bound in the overflow slot.
func TestHistogramBucketIndex(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 0}, {256, 0},
		{257, 1}, {512, 1}, {513, 2}, {1024, 2},
		{uint64(256) << 25, histFinite - 1},
		{uint64(256)<<25 + 1, histFinite},
		{1 << 62, histFinite},
	}
	for _, c := range cases {
		h := &Histogram{}
		h.ObserveNanos(c.ns)
		got := -1
		for i := range h.counts {
			if h.counts[i].Load() == 1 {
				got = i
				break
			}
		}
		if got != c.want {
			t.Errorf("ObserveNanos(%d) landed in bucket %d, want %d", c.ns, got, c.want)
		}
	}
	h := &Histogram{}
	h.Observe(-time.Second)
	if h.counts[0].Load() != 1 || h.sumNs.Load() != 0 {
		t.Error("negative duration should clamp to zero")
	}
}

// TestLabelEscaping: quotes, backslashes and newlines in label values
// must render escaped, not break the line format.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "h", "path", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("output %q missing escaped series %q", b.String(), want)
	}
}

// TestRecordPathAllocs is the dynamic half of the hot-path contract:
// recording into a counter or histogram allocates nothing.
func TestRecordPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	c := newCounter()
	if avg := testing.AllocsPerRun(1000, func() { c.Add(1) }); avg != 0 {
		t.Errorf("Counter.Add = %.2f allocs/op, want 0", avg)
	}
	h := &Histogram{}
	if avg := testing.AllocsPerRun(1000, func() { h.Observe(1200 * time.Nanosecond) }); avg != 0 {
		t.Errorf("Histogram.Observe = %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkCounterAdd measures the uncontended record cost.
func BenchmarkCounterAdd(b *testing.B) {
	c := newCounter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkCounterAddParallel measures the sharded counter under the
// contention it exists for.
func BenchmarkCounterAddParallel(b *testing.B) {
	c := newCounter()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

// BenchmarkHistogramObserve measures one latency record.
func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{}
	ns := make([]uint64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range ns {
		ns[i] = uint64(rng.Intn(5_000_000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ObserveNanos(ns[i&1023])
	}
}
