package main

// Reference answers and the side ladder. Every distinct query is evaluated
// in-process with engine.Engine.Rank/RankBatch over the dataset parsed
// directly from the payload bytes (store.Parse, no store, no server), and
// encoded the way the server and `prfserve -oneshot` encode it: serve's
// FromResult/FromResults, json.Encoder, and gzip at BestSpeed for bodies of
// at least gzipMinSize bytes when the client negotiated gzip. Responses are
// checked against hashes of these bodies. The same evaluation, timed, is
// the side ladder: kernel (Ranker calls), engine self time (Rank/RankBatch
// minus its kernel calls) and encode.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/store"
)

// gzipMinSize mirrors the server's threshold below which a gzip-negotiated
// body is sent uncompressed. check accepts either form, so a server that
// moves the threshold still passes.
const gzipMinSize = 1024

var hashSeed = maphash.MakeSeed()

// ref is the expected response of one query on one dataset generation.
type ref struct {
	id uint64 // hash of the identity body
	gz uint64 // hash of the reference gzip body; 0 below gzipMinSize
}

// rungs are the side-ladder timings of one distinct evaluation, in ms.
type rungs struct {
	kernel, engine, encode, gzip float64
}

// refs holds the expected bodies per generation and query. Generation g of
// a swap workload serves w.payloadFor(g); every other workload has one.
type refs struct {
	byGen  [][]ref
	ladder [][]rungs
}

// ok reports whether a response body is the expected answer.
func (r ref) ok(body []byte, gzipped bool) bool {
	h := maphash.Bytes(hashSeed, body)
	if !gzipped {
		return h == r.id
	}
	if r.gz != 0 && h == r.gz {
		return true
	}
	// A compressor other than the reference's: compare what it inflates to.
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return false
	}
	raw, err := io.ReadAll(zr)
	return err == nil && maphash.Bytes(hashSeed, raw) == r.id
}

// refGen maps a generation onto the index of its reference set.
func (w *workload) refGen(gen int) int {
	if gen == 0 {
		return 0
	}
	return 1 + (gen-1)%len(w.swaps)
}

// computeRefs evaluates every distinct query on every generation it can
// meet, on `workers` goroutines. The ladder's timings are only meaningful
// when workers matches the concurrency of the replay they are compared
// with. corrupt ≥ 0 flips one byte of that query's
// generation-0 reference body — the self-test's proof that the check bites.
func computeRefs(ctx context.Context, w *workload, workers, corrupt int) (*refs, error) {
	gens := 1
	if w.underRead {
		gens = 1 + len(w.swaps)
	}
	type dsKey struct {
		gen  int
		name string
	}
	engines := map[dsKey]*engine.Engine{}
	open := func(gen int, p payload) error {
		ds, err := p.parse()
		if err != nil {
			return err
		}
		e, err := ds.Engine()
		if err != nil {
			return fmt.Errorf("preparing %s: %w", p.name, err)
		}
		engines[dsKey{gen, p.name}] = engine.New(spanRanker{r: e.Ranker()})
		return nil
	}
	for _, p := range w.payloads {
		if err := open(0, p); err != nil {
			return nil, err
		}
	}
	for g := 1; g < gens; g++ {
		if err := open(g, w.swaps[g-1]); err != nil {
			return nil, err
		}
	}
	out := &refs{byGen: make([][]ref, gens), ladder: make([][]rungs, gens)}
	type task struct{ gen, q int }
	tasks := make(chan task)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for t := range tasks {
				if errs[i] != nil {
					continue
				}
				q := &w.queries[t.q]
				e, found := engines[dsKey{t.gen, q.req.Dataset}]
				if !found {
					errs[i] = fmt.Errorf("query %d names unknown dataset %q", t.q, q.req.Dataset)
					continue
				}
				body, zbody, rg, err := evaluate(ctx, e, q)
				if err != nil {
					errs[i] = fmt.Errorf("reference for %s %s: %w", q.path, q.body, err)
					continue
				}
				if t.gen == 0 && t.q == corrupt {
					body = append([]byte(nil), body...)
					body[len(body)/2] ^= 0x20
				}
				r := ref{id: maphash.Bytes(hashSeed, body)}
				if zbody != nil {
					r.gz = maphash.Bytes(hashSeed, zbody)
				}
				out.byGen[t.gen][t.q] = r
				out.ladder[t.gen][t.q] = rg
			}
		}(i)
	}
	for g := 0; g < gens; g++ {
		out.byGen[g] = make([]ref, len(w.queries))
		out.ladder[g] = make([]rungs, len(w.queries))
	}
	for g := 0; g < gens; g++ {
		for q := range w.queries {
			if g > 0 && w.queries[q].req.Dataset != liveName {
				continue
			}
			tasks <- task{g, q}
		}
	}
	close(tasks)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evaluate answers one query in-process and encodes it as the server does.
func evaluate(ctx context.Context, e *engine.Engine, q *query) (body, zbody []byte, rg rungs, err error) {
	eq, err := q.req.Query.ToQuery()
	if err != nil {
		return nil, nil, rg, err
	}
	rt := &reqTrace{}
	tctx := withTrace(ctx, rt)
	// The encode rung starts at t1, before FromResult/FromResults, so the
	// wire conversion counts in it.
	var t1 time.Time
	var v any
	t0 := time.Now()
	if q.path == "/rankbatch" {
		res, err := e.RankBatch(tctx, eq)
		if err != nil {
			return nil, nil, rg, err
		}
		t1 = time.Now()
		v = serve.BatchResponse{Dataset: q.req.Dataset, Results: serve.FromResults(res)}
	} else {
		res, err := e.Rank(tctx, eq)
		if err != nil {
			return nil, nil, rg, err
		}
		t1 = time.Now()
		v = serve.RankResponse{Dataset: q.req.Dataset, WireResult: serve.FromResult(res)}
	}
	rg.engine = ms(t1.Sub(t0))
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, nil, rg, err
	}
	t2 := time.Now()
	body = buf.Bytes()
	if len(body) >= gzipMinSize {
		var zbuf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&zbuf, gzip.BestSpeed) // a valid level never errs
		if _, err := zw.Write(body); err != nil {
			return nil, nil, rg, err
		}
		if err := zw.Close(); err != nil {
			return nil, nil, rg, err
		}
		zbody = zbuf.Bytes()
		rg.gzip = ms(time.Since(t2))
	}
	rg.kernel = float64(rt.kernelNs.Load()) / 1e6
	rg.engine -= rg.kernel
	rg.encode = ms(t2.Sub(t1))
	return body, zbody, rg, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// lazyProbe is the certifiable top-k set run against a cold lazy view: the
// same /rankbatch top-k queries the swap-under-read reader sends.
var lazyProbe = []struct {
	alphas []float64
	k      int
}{
	{[]float64{0.5}, 10}, {[]float64{0.7}, 10}, {[]float64{0.8}, 10}, {[]float64{0.9}, 10},
	{[]float64{0.6, 0.7, 0.8, 0.9}, 5}, {[]float64{0.55, 0.75, 0.95}, 20},
}

// storeLadder times the store calls an admin POST makes — store.Parse,
// Store.Import, Store.OpenEngine — on each swap payload in a side store on
// the same filesystem as the server's, then runs lazyProbe on the freshly
// opened lazy view and times its full materialization.
func storeLadder(ctx context.Context, dir string, w *workload) (map[string][]float64, error) {
	st, err := store.Open(filepath.Join(dir, "side"))
	if err != nil {
		return nil, err
	}
	m := map[string][]float64{}
	for _, p := range w.swaps {
		t0 := time.Now()
		ds, err := p.parse()
		if err != nil {
			return nil, err
		}
		m["parse"] = append(m["parse"], ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := st.Import(liveName, ds); err != nil {
			return nil, err
		}
		m["import"] = append(m["import"], ms(time.Since(t0)))
		t0 = time.Now()
		e, info, err := st.OpenEngine(liveName)
		if err != nil {
			return nil, err
		}
		m["open"] = append(m["open"], ms(time.Since(t0)))
		lazy, ok := e.Ranker().(*store.LazyPrepared)
		if !ok {
			return nil, fmt.Errorf("store opened %s as %T, not a lazy view", liveName, e.Ranker())
		}
		for _, pr := range lazyProbe {
			if _, err := lazy.QueryTopKPRFeBatch(ctx, pr.alphas, pr.k); err != nil {
				return nil, err
			}
		}
		m["bytes_read_share"] = append(m["bytes_read_share"], float64(lazy.BytesRead())/float64(info.SizeBytes))
		t0 = time.Now()
		if _, err := lazy.Materialize(ctx); err != nil {
			return nil, err
		}
		m["materialize"] = append(m["materialize"], ms(time.Since(t0)))
	}
	return m, nil
}
