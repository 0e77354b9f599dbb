package main

// Tracing from outside the program. Two decorators record spans around
// the calls the benchmark makes into the layers' public surfaces:
//
//   - tracedHandler wraps *serve.Server as an http.Handler: one serve span
//     per request (admin span for POST /datasets/{name}). It stamps a
//     *reqTrace into r.Context(); serve derives every query context from
//     it, so the Ranker below sees the same request.
//   - spanRanker wraps an engine.Ranker: one kernel span per call,
//     parented to the request's serve span. engine never type-asserts its
//     Ranker, so the wrapper leaves dispatch unchanged.
//
// Spans stay in memory and are written out once the run ends.

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/pdb"
)

const reqHeader = "X-Prfbench-Req"

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; parent is the id of the span that caused this one (0 for roots).
type span struct {
	id, parent int64
	req        int64
	layer      string // http | serve | admin | kernel
	start, end int64
}

func (s span) dur() float64 { return float64(s.end-s.start) / 1e6 }

type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps every span as tab-separated id, parent, req, layer, start_ns,
// end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\treq\tlayer\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.layer, s.start, s.end)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reqTrace is the per-request state carried in the context: the serve
// span's id and the kernel time spent under it.
type reqTrace struct {
	req, spanID int64
	kernelNs    atomic.Int64
}

type reqTraceKey struct{}

func withTrace(ctx context.Context, rt *reqTrace) context.Context {
	return context.WithValue(ctx, reqTraceKey{}, rt)
}

func traceOf(ctx context.Context) *reqTrace {
	rt, _ := ctx.Value(reqTraceKey{}).(*reqTrace)
	return rt
}

// tracedHandler records the serve span of every request it forwards.
type tracedHandler struct {
	next http.Handler
	t    *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	if err != nil {
		req = noReq
	}
	layer := "serve"
	if strings.HasPrefix(r.URL.Path, "/datasets/") && r.Method == http.MethodPost {
		layer = "admin"
	}
	rt := &reqTrace{req: req, spanID: h.t.next.Add(1)}
	var parent int64
	if req != noReq {
		parent = httpSpanID(req)
	}
	start := h.t.now()
	h.next.ServeHTTP(w, r.WithContext(withTrace(r.Context(), rt)))
	h.t.record(span{id: rt.spanID, parent: parent, req: req, layer: layer, start: start, end: h.t.now()})
}

// httpSpanID is the id of a request's client roundtrip span; it stays clear
// of the ids the tracer hands out.
func httpSpanID(req int64) int64 { return 1<<40 + req }

// recordClient adds a played phase's roundtrips as the root http spans.
func (t *tracer) recordClient(p *phase, ids func(int) int64) {
	for i, s := range p.samples {
		start := int64(s.start.Sub(t.epoch))
		t.record(span{id: httpSpanID(ids(i)), req: ids(i), layer: "http", start: start, end: start + int64(s.dur)})
	}
}

// noReq marks requests that carry no benchmark request id (admin, /stats).
const noReq = -1 << 62

// spanRanker times every Ranker call. With a tracer it logs a kernel span
// per call; it always adds the call's time to the context's reqTrace.
type spanRanker struct {
	r engine.Ranker
	t *tracer // nil: accumulate into reqTrace only
}

func (s spanRanker) done(ctx context.Context, start time.Time) {
	d := time.Since(start)
	rt := traceOf(ctx)
	if rt == nil {
		return
	}
	rt.kernelNs.Add(int64(d))
	if s.t != nil {
		end := s.t.now()
		s.t.record(span{id: s.t.next.Add(1), parent: rt.spanID, req: rt.req, layer: "kernel", start: end - int64(d), end: end})
	}
}

func (s spanRanker) Len() int { return s.r.Len() }

func (s spanRanker) QueryPRFe(ctx context.Context, alpha complex128) ([]complex128, error) {
	defer s.done(ctx, time.Now())
	return s.r.QueryPRFe(ctx, alpha)
}

func (s spanRanker) QueryPRFeBatch(ctx context.Context, alphas []complex128) ([][]complex128, error) {
	defer s.done(ctx, time.Now())
	return s.r.QueryPRFeBatch(ctx, alphas)
}

func (s spanRanker) QueryRankPRFe(ctx context.Context, alpha float64) (pdb.Ranking, error) {
	defer s.done(ctx, time.Now())
	return s.r.QueryRankPRFe(ctx, alpha)
}

func (s spanRanker) QueryRankPRFeBatch(ctx context.Context, alphas []float64) ([]pdb.Ranking, error) {
	defer s.done(ctx, time.Now())
	return s.r.QueryRankPRFeBatch(ctx, alphas)
}

func (s spanRanker) QueryTopKPRFeBatch(ctx context.Context, alphas []float64, k int) ([]pdb.Ranking, error) {
	defer s.done(ctx, time.Now())
	return s.r.QueryTopKPRFeBatch(ctx, alphas, k)
}

func (s spanRanker) QueryPRFeCombo(ctx context.Context, us, alphas []complex128) ([]complex128, error) {
	defer s.done(ctx, time.Now())
	return s.r.QueryPRFeCombo(ctx, us, alphas)
}

func (s spanRanker) QueryPRF(ctx context.Context, omega func(t pdb.Tuple, rank int) float64) ([]float64, error) {
	defer s.done(ctx, time.Now())
	return s.r.QueryPRF(ctx, omega)
}

func (s spanRanker) QueryPRFOmega(ctx context.Context, w []float64) ([]float64, error) {
	defer s.done(ctx, time.Now())
	return s.r.QueryPRFOmega(ctx, w)
}

func (s spanRanker) QueryPTh(ctx context.Context, h int) ([]float64, error) {
	defer s.done(ctx, time.Now())
	return s.r.QueryPTh(ctx, h)
}

func (s spanRanker) QueryERank(ctx context.Context) ([]float64, error) {
	defer s.done(ctx, time.Now())
	return s.r.QueryERank(ctx)
}

func (s spanRanker) QueryExpectedRank(ctx context.Context) ([]float64, error) {
	defer s.done(ctx, time.Now())
	return s.r.QueryExpectedRank(ctx)
}

func (s spanRanker) QueryMedianRank(ctx context.Context) ([]float64, error) {
	defer s.done(ctx, time.Now())
	return s.r.QueryMedianRank(ctx)
}
