package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// ctxBackground is the context of untraced requests.
var ctxBackground = context.Background()

// client is the benchmark's single closed-loop client: it calls the
// server's handler in-process, one request at a time, and sends the next
// request only after the previous one has returned.
type client struct {
	h http.Handler
	// seq fingerprints the request sequence: method and target of every
	// request, in order.
	seq hash.Hash64
}

func newClient(h http.Handler) *client { return &client{h: h, seq: fnv.New64a()} }

// response is one completed request as the client saw it.
type response struct {
	code    int
	header  http.Header
	body    []byte
	ttfb    time.Duration // request start to first body byte (total when the body is empty)
	total   time.Duration // request start to handler return
	aborted bool          // the handler aborted mid-stream (http.ErrAbortHandler)
}

// cache returns the X-Aig-Cache state of the response.
func (r *response) cache() string { return r.header.Get("X-Aig-Cache") }

// ok reports whether the request succeeded with a complete body.
func (r *response) ok() bool { return r.code == http.StatusOK && !r.aborted }

// recorder is a minimal http.ResponseWriter that timestamps the first
// body byte. It implements http.Flusher so streamed fragments flush
// through it the way they would through a real connection.
type recorder struct {
	h     http.Header
	code  int
	first time.Time
	buf   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	if len(b) > 0 && r.first.IsZero() {
		r.first = time.Now()
	}
	return r.buf.Write(b)
}

func (r *recorder) Flush() {}

// do sends one request and waits for the handler to return. ctx may
// carry a benchmark-owned tracer (obs.ContextWithSpan).
func (c *client) do(ctx context.Context, method, target string, noStore bool) response {
	fmt.Fprintf(c.seq, "%s %s %t\n", method, target, noStore)
	req := httptest.NewRequest(method, target, nil).WithContext(ctx)
	if noStore {
		req.Header.Set("Cache-Control", "no-store")
	}
	rec := &recorder{h: make(http.Header)}
	var aborted bool
	start := time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				if p != http.ErrAbortHandler {
					panic(p)
				}
				aborted = true
			}
		}()
		c.h.ServeHTTP(rec, req)
	}()
	end := time.Now()
	resp := response{code: rec.code, header: rec.h, body: rec.buf.Bytes(), total: end.Sub(start), aborted: aborted}
	if resp.code == 0 {
		resp.code = http.StatusOK
	}
	resp.ttfb = resp.total
	if !rec.first.IsZero() {
		resp.ttfb = rec.first.Sub(start)
	}
	return resp
}

// digest is a body fingerprint for byte-equality checks that do not keep
// every body alive.
type digest [sha256.Size]byte

func digestOf(b []byte) digest { return sha256.Sum256(b) }

// checks collects output-check failures; each one counts as a failed
// operation.
type checks struct {
	failed   int
	problems []string
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// durations in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (the layer did no work on the workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSnap is the Go runtime's cumulative allocation and GC work.
type runtimeSnap struct {
	totalAlloc uint64
	mallocs    uint64
	gcCPUSec   float64
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func snapRuntime() runtimeSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	metrics.Read(gcCPUSample)
	s := runtimeSnap{totalAlloc: m.TotalAlloc, mallocs: m.Mallocs}
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPUSec = gcCPUSample[0].Value.Float64()
	}
	return s
}

// heapRetainedMB forces a collection and returns the live heap. Callers
// keep the server reachable across the call.
func heapRetainedMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
