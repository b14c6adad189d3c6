// Package metrics is a dependency-free instrumentation registry that
// exposes counters, scrape-time gauges and counters, and histograms in
// the Prometheus text exposition format (version 0.0.4).
//
// It exists so the stage engine, balancer, WAL, and analyzer can be
// observed from a running deployment without pulling the Prometheus
// client library into the module. The API is deliberately small:
//
//	reg := metrics.NewRegistry()
//	accepted := reg.Counter("prochlo_reports_accepted_total",
//	        "Reports accepted into an epoch.", metrics.Labels{"role": "shuffler1"})
//	accepted.Add(1)
//	srv, _ := metrics.Serve("127.0.0.1:9090", reg, nil)
//	defer srv.Close()
//
// Instruments registered through a Registry are safe for concurrent
// use. A gauge is only ever a GaugeFunc: it and CounterFunc register
// callbacks evaluated at scrape time, which lets existing atomic
// counters be exported without double bookkeeping on the hot path. All instrument methods are
// nil-receiver safe, so instrumented code can run with metrics
// disabled (a nil instrument) at zero branching cost to the caller.
package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is the set of key/value pairs attached to one time series.
// Keys and values are rendered sorted by key, so two Labels maps with
// the same contents always identify the same series.
type Labels map[string]string

// renderLabels produces the canonical `{k="v",...}` form, or "" when
// the set is empty. Values are escaped per the text exposition format.
func renderLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// instrument is one time series: it knows how to append its sample
// lines given the family name and its rendered label set.
type instrument interface {
	writeSamples(b *bytes.Buffer, name, labels string)
}

type series struct {
	labelStr string
	inst     instrument
}

type family struct {
	name   string
	help   string
	typ    string // counter | gauge | histogram
	series map[string]*series
}

// Registry holds a set of metric families and renders them in the
// Prometheus text format. The zero value is not usable; call
// NewRegistry. A nil *Registry is accepted by every registration
// method and returns nil instruments, so callers can thread an
// optional registry without guarding each call site.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty Registry ready for use.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// lookup returns (creating if needed) the series for (name, labels),
// panicking on a type clash. build is called under the registry lock
// to create a fresh instrument when the series does not exist yet.
func (r *Registry) lookup(name, help, typ string, labels Labels, build func() instrument) instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s already registered as %s, not %s", name, f.typ, typ))
	}
	ls := renderLabels(labels)
	if s, ok := f.series[ls]; ok {
		return s.inst
	}
	inst := build()
	f.series[ls] = &series{labelStr: ls, inst: inst}
	return inst
}

// Counter registers (or fetches) a monotonically increasing counter.
// Returns nil when r is nil.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "counter", labels, func() instrument { return &Counter{} }).(*Counter)
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time. Re-registering the same (name, labels) replaces the callback,
// which keeps restarted components scrapeable. fn must be safe to call
// from any goroutine and must not block on work that could in turn
// wait for a scrape. No-op when r is nil.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	fc := r.lookup(name, help, "gauge", labels, func() instrument { return &funcInstrument{} }).(*funcInstrument)
	fc.set(fn)
}

// CounterFunc registers a counter whose cumulative value is computed
// by fn at scrape time; fn must be monotonically non-decreasing over
// the life of the process. Re-registering replaces the callback.
// No-op when r is nil.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	fc := r.lookup(name, help, "counter", labels, func() instrument { return &funcInstrument{} }).(*funcInstrument)
	fc.set(fn)
}

// Histogram registers (or fetches) a histogram with the given upper
// bucket bounds (ascending; a trailing +Inf bucket is implicit).
// If the series already exists its original buckets are kept.
// Returns nil when r is nil.
func (r *Registry) Histogram(name, help string, labels Labels, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, "histogram", labels, func() instrument {
		return newHistogram(buckets)
	}).(*Histogram)
}

// WriteTo renders every registered family in the text exposition
// format, families and series in stable sorted order, and writes the
// result to w. It implements io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b bytes.Buffer
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	type row struct {
		fam    *family
		series []*series
	}
	rows := make([]row, 0, len(names))
	for _, n := range names {
		f := r.fams[n]
		ss := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			ss = append(ss, s)
		}
		sort.Slice(ss, func(i, j int) bool { return ss[i].labelStr < ss[j].labelStr })
		rows = append(rows, row{fam: f, series: ss})
	}
	r.mu.Unlock()
	// Samples are collected outside the registry lock so a slow
	// GaugeFunc cannot stall concurrent registrations.
	for _, rw := range rows {
		fmt.Fprintf(&b, "# HELP %s %s\n", rw.fam.name, rw.fam.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", rw.fam.name, rw.fam.typ)
		for _, s := range rw.series {
			s.inst.writeSamples(&b, rw.fam.name, s.labelStr)
		}
	}
	n, err := w.Write(b.Bytes())
	return int64(n), err
}

// Handler returns an http.Handler that serves the registry contents
// with the Prometheus text-format content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w) //nolint:errcheck // client disconnects are not actionable
	})
}

func writeFloat(b *bytes.Buffer, v float64) {
	switch {
	case math.IsInf(v, 1):
		b.WriteString("+Inf")
	case math.IsInf(v, -1):
		b.WriteString("-Inf")
	case math.IsNaN(v):
		b.WriteString("NaN")
	default:
		b.Write(strconv.AppendFloat(b.AvailableBuffer(), v, 'g', -1, 64))
	}
}

func writeSample(b *bytes.Buffer, name, labels string, v float64) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	writeFloat(b, v)
	b.WriteByte('\n')
}

// Counter is a monotonically increasing value. The zero value is ready
// to use; all methods are safe for concurrent use and are no-ops on a
// nil receiver.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increments the counter by v; negative v is ignored.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current counter value (0 on a nil receiver).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

func (c *Counter) writeSamples(b *bytes.Buffer, name, labels string) {
	writeSample(b, name, labels, c.Value())
}

// funcInstrument backs GaugeFunc/CounterFunc: the callback is read at
// scrape time and replaceable on re-registration.
type funcInstrument struct {
	mu sync.Mutex
	fn func() float64
}

func (f *funcInstrument) set(fn func() float64) {
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

func (f *funcInstrument) writeSamples(b *bytes.Buffer, name, labels string) {
	f.mu.Lock()
	fn := f.fn
	f.mu.Unlock()
	var v float64
	if fn != nil {
		v = fn()
	}
	writeSample(b, name, labels, v)
}

// DefBuckets are general-purpose latency buckets in seconds, from
// 100 microseconds to 10 seconds. They suit the per-stage process and
// push histograms; WAL fsync uses the finer FsyncBuckets.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// FsyncBuckets resolve the sub-millisecond range where fdatasync
// latencies on local disks and cloud volumes actually live.
var FsyncBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1,
}

// Histogram counts observations into cumulative buckets and tracks the
// total sum, rendering `_bucket`, `_sum`, and `_count` series. All
// methods are safe for concurrent use and are no-ops on a nil
// receiver.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf excluded
	counts  []atomic.Uint64
	inf     atomic.Uint64
	sumBits atomic.Uint64 // float64 bits
}

func newHistogram(buckets []float64) *Histogram {
	bounds := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		if !math.IsInf(b, 1) {
			bounds = append(bounds, b)
		}
	}
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	if idx < len(h.bounds) {
		h.counts[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total + h.inf.Load()
}

func (h *Histogram) writeSamples(b *bytes.Buffer, name, labels string) {
	// Each bucket line needs the le label merged into the series
	// labels: strip the closing brace (or open a fresh set).
	prefix := "{"
	if labels != "" {
		prefix = labels[:len(labels)-1] + ","
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		b.WriteString(name)
		b.WriteString("_bucket")
		b.WriteString(prefix)
		b.WriteString(`le="`)
		writeFloat(b, bound)
		b.WriteString(`"} `)
		b.WriteString(strconv.FormatUint(cum, 10))
		b.WriteByte('\n')
	}
	cum += h.inf.Load()
	b.WriteString(name)
	b.WriteString("_bucket")
	b.WriteString(prefix)
	b.WriteString(`le="+Inf"} `)
	b.WriteString(strconv.FormatUint(cum, 10))
	b.WriteByte('\n')
	writeSample(b, name+"_sum", labels, math.Float64frombits(h.sumBits.Load()))
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(cum, 10))
	b.WriteByte('\n')
}

// Server is a running metrics endpoint created by Serve.
type Server struct {
	l   net.Listener
	srv *http.Server
}

// Addr returns the address the server is listening on, useful when
// Serve was given a ":0" port.
func (s *Server) Addr() string { return s.l.Addr().String() }

// Close shuts the listener down and releases the serving goroutine.
func (s *Server) Close() error { return s.srv.Close() }

// Serve starts an HTTP server on addr exposing reg at /metrics, a
// liveness probe at /healthz, and the Go profiler under /debug/pprof/
// (CPU, heap, mutex, goroutine — the hook for finding the next wire or
// codec hotspot in a running daemon). healthy, if non-nil, gates the
// /healthz status: true yields 200 "ok", false yields 503. A nil healthy
// always reports 200. The server runs until Close is called.
func Serve(addr string, reg *Registry, healthy func() bool) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if healthy != nil && !healthy() {
			http.Error(w, "unhealthy", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n") //nolint:errcheck
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(l) //nolint:errcheck // Close returns ErrServerClosed here
	return &Server{l: l, srv: srv}, nil
}
