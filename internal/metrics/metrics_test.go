package metrics

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestWriteToGolden pins the exact text exposition output: family and
// series ordering, HELP/TYPE lines, label escaping, and histogram
// bucket rendering.
func TestWriteToGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_requests_total", "Requests handled.", Labels{"role": "a"}).Add(3)
	reg.Counter("test_requests_total", "Requests handled.", Labels{"role": "b"}).Inc()
	reg.GaugeFunc("test_queue_depth", "Items queued.", nil, func() float64 { return 7.5 })
	reg.GaugeFunc("test_up", "Always one.", Labels{"q": `sa"y\n`}, func() float64 { return 1 })
	h := reg.Histogram("test_latency_seconds", "Op latency.", Labels{"role": "a"}, []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)

	var b bytes.Buffer
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	want := `# HELP test_latency_seconds Op latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{role="a",le="0.01"} 1
test_latency_seconds_bucket{role="a",le="0.1"} 3
test_latency_seconds_bucket{role="a",le="1"} 3
test_latency_seconds_bucket{role="a",le="+Inf"} 4
test_latency_seconds_sum{role="a"} 5.105
test_latency_seconds_count{role="a"} 4
# HELP test_queue_depth Items queued.
# TYPE test_queue_depth gauge
test_queue_depth 7.5
# HELP test_requests_total Requests handled.
# TYPE test_requests_total counter
test_requests_total{role="a"} 3
test_requests_total{role="b"} 1
# HELP test_up Always one.
# TYPE test_up gauge
test_up{q="sa\"y\\n"} 1
`
	if got := b.String(); got != want {
		t.Errorf("text output mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRegistryConcurrency hammers registration, updates, and scrapes
// from many goroutines; run under -race this is the registry's
// thread-safety proof.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := Labels{"w": fmt.Sprintf("%d", w%4)}
			for i := 0; i < iters; i++ {
				reg.Counter("conc_total", "c", labels).Inc()
				reg.Histogram("conc_hist", "h", labels, DefBuckets).Observe(float64(i) / 1000)
				reg.GaugeFunc("conc_fn", "f", labels, func() float64 { return float64(i) })
				if i%100 == 0 {
					if _, err := reg.WriteTo(io.Discard); err != nil {
						t.Errorf("WriteTo: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var total float64
	for w := 0; w < 4; w++ {
		total += reg.Counter("conc_total", "c", Labels{"w": fmt.Sprintf("%d", w)}).Value()
	}
	if want := float64(workers * iters); total != want {
		t.Errorf("counter total = %v, want %v", total, want)
	}
}

// TestNilSafety proves a disabled metrics path (nil registry, nil
// instruments) never panics and never records.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "x", nil)
	h := reg.Histogram("x_seconds", "x", nil, DefBuckets)
	reg.GaugeFunc("x_fn", "x", nil, func() float64 { return 1 })
	reg.CounterFunc("x_cfn", "x", nil, func() float64 { return 1 })
	c.Inc()
	c.Add(5)
	h.Observe(0.1)
	if c.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments must observe nothing")
	}
}

// TestTypeClashPanics pins the registration misuse failure mode.
func TestTypeClashPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("clash", "c", nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic registering clash as gauge after counter")
		}
	}()
	reg.GaugeFunc("clash", "g", nil, func() float64 { return 0 })
}

// TestCounterIgnoresNegative pins monotonicity.
func TestCounterIgnoresNegative(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("mono_total", "m", nil)
	c.Add(2)
	c.Add(-5)
	if c.Value() != 2 {
		t.Errorf("counter = %v, want 2", c.Value())
	}
}

// TestServe exercises the /metrics and /healthz endpoints end to end.
func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total", "s", nil).Add(9)
	healthy := true
	srv, err := Serve("127.0.0.1:0", reg, func() bool { return healthy })
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "served_total 9") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body = get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	healthy = false
	if code, _ = get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("unhealthy /healthz = %d, want 503", code)
	}
}
