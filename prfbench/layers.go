package main

// The traced run: the same seeded lists replayed against serve.New hosted
// in this process, once plain and once with tracedHandler + spanRanker,
// then reduced to the per-layer metrics LAYERS.md defines.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"

	"repro/internal/store"
)

// families are the kernel families reported as kernel.self_ms_p50.<family>.
var families = []string{"prfe", "pth", "erank", "expectedrank", "globaltopk", "medianrank", "andxor", "chain"}

// inprocRun is one replay against an in-process server.
type inprocRun struct {
	warm, main *phase
	rounds     []round
	cnt        counters
	admin      []float64
}

func measureInProcess(ctx context.Context, w *workload, rf *refs, st *store.Store, t *tracer) (*inprocRun, error) {
	if err := resetLive(st, w); err != nil {
		return nil, err
	}
	srv, err := startInProcess(st, t)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	c := newLoadClient(srv.base)
	defer c.close()
	admin := newLoadClient(srv.base)
	defer admin.close()
	var mainIDs, warmIDs func(int) int64
	if t != nil {
		mainIDs, warmIDs = mainID, warmID
	}
	r := &inprocRun{}
	v := verifierFor(w, rf)
	r.warm = c.play(ctx, w, w.warm, v, warmIDs, nil, nil)
	snapshot := func() error {
		s, err := admin.stats(ctx)
		if err == nil {
			r.cnt.add(s)
		}
		return err
	}
	if err := snapshot(); err != nil {
		return nil, err
	}
	runtime.GC()
	var snapErr error
	r.main, r.rounds, r.admin, err = measure(ctx, w, c, admin, v, mainIDs, func() {
		if err := snapshot(); err != nil && snapErr == nil {
			snapErr = err
		}
	}, nil)
	if err = errors.Join(err, snapErr); err != nil {
		return nil, err
	}
	if err := snapshot(); err != nil {
		return nil, err
	}
	return r, nil
}

// Traced requests are numbered by list position: i for the measured list,
// -(i+1) for the warm-up list.
func mainID(i int) int64 { return int64(i) }
func warmID(i int) int64 { return -int64(i) - 1 }

func (r *inprocRun) throughput() float64 { return medianOf(r.rounds, roundThroughput) }

// traced runs the plain and traced in-process replays and the store side
// ladder, and fills res with the per-layer metrics.
func traced(ctx context.Context, w *workload, rf *refs, st *store.Store, dir string, e2e *e2eResult, res *result, out io.Writer, spanFile string) error {
	plain, err := measureInProcess(ctx, w, rf, st, nil)
	if err != nil {
		return err
	}
	t := newTracer()
	tr, err := measureInProcess(ctx, w, rf, st, t)
	if err != nil {
		return err
	}
	sl, err := storeLadder(ctx, dir, w)
	if err != nil {
		return err
	}
	for _, ph := range []*phase{plain.warm, plain.main, tr.warm, tr.main} {
		res.Attempted += len(ph.samples)
		res.Failed += ph.failed
		for _, m := range ph.mismatches {
			fmt.Fprintln(out, "  FAILED:", m)
		}
	}
	res.Attempted += len(plain.admin) + len(tr.admin)
	t.recordClient(tr.warm, warmID)
	t.recordClient(tr.main, mainID)
	if err := t.write(spanFile); err != nil {
		return err
	}

	// Group the spans per request.
	type reqSpans struct {
		serve, kernel float64
		calls         int
		served        bool
	}
	byReq := map[int64]*reqSpans{}
	get := func(id int64) *reqSpans {
		rs := byReq[id]
		if rs == nil {
			rs = &reqSpans{}
			byReq[id] = rs
		}
		return rs
	}
	var adminMs []float64
	for _, s := range t.spans {
		switch s.layer {
		case "serve":
			if s.req != noReq {
				rs := get(s.req)
				rs.serve, rs.served = s.dur(), true
			}
		case "admin":
			adminMs = append(adminMs, s.dur())
		case "kernel":
			rs := get(s.req)
			rs.kernel += s.dur()
			rs.calls++
		}
	}
	queryOf := func(id int64) request {
		if id >= 0 {
			return w.list[id]
		}
		return w.warm[-id-1]
	}

	var httpSelf, serveSelf, bytes []float64
	var kernelSum, rtSum float64
	calls := 0
	for i, s := range tr.main.samples {
		rs := byReq[int64(i)]
		if rs == nil || !rs.served || !s.ok {
			continue
		}
		httpSelf = append(httpSelf, ms(s.dur)-rs.serve)
		serveSelf = append(serveSelf, rs.serve-rs.kernel)
		bytes = append(bytes, float64(s.bytes))
		kernelSum += rs.kernel
		rtSum += ms(s.dur)
		calls += rs.calls
	}
	famMs := map[string][]float64{}
	var ladderSum, serveSum float64
	for id, rs := range byReq {
		if rs.calls == 0 || id == noReq {
			continue
		}
		r := queryOf(id)
		famMs[w.queries[r.q].family] = append(famMs[w.queries[r.q].family], rs.kernel)
		if rs.served {
			lg := rf.ladder[0][r.q]
			ladderSum += lg.kernel + lg.engine + lg.encode
			if r.gzip {
				ladderSum += lg.gzip
			}
			serveSum += rs.serve
		}
	}
	// Engine self time and encode per distinct evaluation, over every
	// (query, encoding) the lists request.
	seen := map[request]bool{}
	var engineSelf, encode []float64
	famEngine := map[string][]float64{}
	for _, list := range [][]request{w.warm, w.list} {
		for _, r := range list {
			if seen[r] {
				continue
			}
			seen[r] = true
			lg := rf.ladder[0][r.q]
			enc := lg.encode
			if r.gzip {
				enc += lg.gzip
			}
			encode = append(encode, enc)
			if !seen[request{q: r.q, gzip: !r.gzip}] {
				engineSelf = append(engineSelf, lg.engine)
				f := w.queries[r.q].family
				famEngine[f] = append(famEngine[f], lg.engine)
			}
		}
	}

	put := func(name, unit string, v float64, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(out, "  %-34s %12.6g %-8s %s\n", name, v, unit, note)
	}
	n := float64(len(httpSelf))
	put("http.self_ms_p50", "ms", median(httpSelf), fmt.Sprintf("(client roundtrip minus serve span, n=%d)", len(httpSelf)))
	put("serve.self_ms_p50", "ms", median(serveSelf), "(serve span minus its kernel spans)")
	put("serve.encode_ms_p50", "ms", median(encode), fmt.Sprintf("(FromResult + JSON (+gzip), %d distinct results)", len(encode)))
	put("serve.response_bytes_p50", "B", median(bytes), "(body bytes as sent)")
	put("serve.bytecache.hit_ratio", "ratio", ratio(tr.cnt.byteHits, tr.cnt.byteHits+tr.cnt.byteMisses), fmt.Sprintf("(%d hits, %d misses)", tr.cnt.byteHits, tr.cnt.byteMisses))
	put("serve.bytecache.evictions", "count", float64(tr.cnt.byteEvict), "")
	put("serve.flight.shared", "count", float64(tr.cnt.shared), "(callers that joined another caller's flight)")
	put("serve.admin_ms_p50", "ms", median(adminMs), fmt.Sprintf("(admin POST handler span, n=%d)", len(adminMs)))
	put("engine.self_ms_p50", "ms", median(engineSelf), fmt.Sprintf("(Rank/RankBatch minus kernel, %d distinct queries)", len(engineSelf)))
	for _, f := range families {
		put("engine.self_ms_p50."+f, "ms", median(famEngine[f]), fmt.Sprintf("(n=%d)", len(famEngine[f])))
	}
	put("engine.cache.hit_ratio", "ratio", ratio(tr.cnt.engineHits, tr.cnt.engineHits+tr.cnt.engineMisses), fmt.Sprintf("(%d hits, %d misses)", tr.cnt.engineHits, tr.cnt.engineMisses))
	put("engine.cache.evictions", "count", float64(tr.cnt.engineEvict), "")
	put("kernel.calls_per_req", "count", float64(calls)/n, "(Ranker calls per measured request)")
	for _, f := range families {
		put("kernel.self_ms_p50."+f, "ms", median(famMs[f]), fmt.Sprintf("(n=%d)", len(famMs[f])))
	}
	put("kernel.busy_share", "ratio", kernelSum/rtSum, "(kernel spans over client roundtrips)")
	put("ladder.rungs_over_serve", "ratio", ladderSum/serveSum, "(side ladder kernel+engine+encode over serve spans of computed requests)")
	put("store.parse_ms_p50", "ms", median(sl["parse"]), fmt.Sprintf("(n=%d swap payloads)", len(sl["parse"])))
	put("store.import_ms_p50", "ms", median(sl["import"]), "")
	put("store.open_ms_p50", "ms", median(sl["open"]), "")
	put("store.lazy.bytes_read_share", "ratio", median(sl["bytes_read_share"]), "(after the certifiable top-k probe)")
	put("store.lazy.materialize_ms", "ms", median(sl["materialize"]), "")
	put("harness.client_cpu_ms_per_req", "ms", e2e.clientCPUPerReq(), "(end-to-end run, median of rounds)")
	put("harness.trace_overhead_share", "ratio", 1-tr.throughput()/plain.throughput(),
		fmt.Sprintf("(traced %.0f vs plain %.0f req/s, both in-process)", tr.throughput(), plain.throughput()))
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
