package main

// The workloads. Each is a fixed, seeded request list played to
// completion, so every run with the same seed and --seconds does the same
// work; the list length is --seconds times the rate the workload sustains
// on a 2-CPU box, and never below minSamples so latency_p99_ms always has
// at least ten samples beyond it. Every workload has one closed-loop
// reader: with two, two concurrent cold requests (RankBatch fans out
// GOMAXPROCS-wide) and the client oversubscribe two CPUs, and cold-mixed's
// throughput spread across seeds was between three and four times that of
// one reader.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/serve"
)

const (
	minSamples = 1000
	// rounds splits every measured list into equal consecutive rounds;
	// throughput, p50 and CPU per request are medians over rounds, so a
	// burst of load from outside the benchmark moves one round, not the
	// result.
	rounds     = 5
	adminToken = "prfbench-admin"
	liveName   = "live" // the dataset every admin POST replaces
)

// sizes are the dataset sizes of one run.
type sizes struct {
	ind   int // independent relation behind the top-k, ranking and consensus queries
	xrel  int // x-relation; its PT(h) kernel is Θ(n²), so it stays small
	chain int // Markov chain
	small int // independent relation for Median-Rank, which is Θ(n²)
	live  int // independent relation every admin POST replaces
}

var (
	fullSizes = sizes{ind: 100_000, xrel: 300, chain: 2000, small: 2000, live: 100_000}
	tinySizes = sizes{ind: 3000, xrel: 40, chain: 200, small: 200, live: 3000}
)

// query is one distinct request body.
type query struct {
	path   string // /rank or /rankbatch
	req    serve.RankRequest
	family string // kernel family the query's Ranker calls belong to
	body   []byte
}

// request is one entry of a request list.
type request struct {
	q    int // index into workload.queries
	gzip bool
}

// workload is everything one run plays against the server.
type workload struct {
	name     string
	why      string
	payloads []payload // initial store content
	swaps    []payload // admin POST payloads for "live", in cycle order; the store ladder times them on every workload
	queries  []query
	warm     []request // played before the measured phase
	list     []request // the measured phase
	// swapCount admin POSTs run during the measured phase of
	// swap-under-read, one per perSwap reader requests.
	swapCount int
	underRead bool
}

var workloadNames = []string{"cold-mixed", "swap-under-read"}

// coldRate is the requests per second cold-mixed's list is sized for.
const coldRate = 46

// perSwap is the number of reader requests between two admin POSTs on
// swap-under-read. With ten distinct reader queries in two encodings, a
// tenth of its requests miss the byte cache after a swap and 2% recompute
// a full ranking, so latency_p99_ms lands among those and shows the
// post-swap cost, not a cache hit.
const perSwap = 200

// buildWorkload generates the datasets and request lists of one workload.
func buildWorkload(name string, seed int64, seconds int, sz sizes) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name}
	for i := 1; i <= 4; i++ {
		w.swaps = append(w.swaps, independentCSV(liveName, sz.live, seed+100+int64(i)))
	}
	live := independentCSV(liveName, sz.live, seed+100)
	switch name {
	case "cold-mixed":
		w.why = "every request has a fresh cache key across metric x output x backend: kernels and engine dispatch do the work"
		xrel, err := xrelationCSV("xrel", sz.xrel, seed+2)
		if err != nil {
			return nil, err
		}
		chain, err := chainJSON("chain", sz.chain, seed+3)
		if err != nil {
			return nil, err
		}
		w.payloads = []payload{independentCSV("ind", sz.ind, seed+1), xrel, chain,
			independentCSV("small", sz.small, seed+4), live}
		w.coldMixed(rng, max(minSamples, int(math.Ceil(float64(seconds)*coldRate/rounds))*rounds))
	case "swap-under-read":
		w.why = "one reader on a lazily served dataset while an admin client replaces it: store, lazy reads and cache turnover"
		w.payloads = []payload{live}
		w.underRead = true
		// swapCount+1 reader intervals, a multiple of rounds.
		w.swapCount = rounds*((3*seconds+rounds)/rounds) - 1
		w.swapUnderRead(rng, (w.swapCount+1)*perSwap)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	for i := range w.queries {
		body, err := json.Marshal(w.queries[i].req)
		if err != nil {
			return nil, err
		}
		w.queries[i].body = body
	}
	return w, nil
}

// add appends a distinct query and returns its index.
func (w *workload) add(path, ds string, q serve.WireQuery) int {
	family := q.Metric
	switch ds {
	case "xrel":
		family = "andxor"
	case "chain":
		family = "chain"
	}
	w.queries = append(w.queries, query{path: path, req: serve.RankRequest{Dataset: ds, Query: q}, family: family})
	return len(w.queries) - 1
}

// grid16 is a strictly increasing 16-point α grid inside (0, 1).
func grid16(start float64) []float64 {
	g := make([]float64, 16)
	for i := range g {
		g[i] = start + 0.02*float64(i)
	}
	return g
}

// coldMixed: blocks of 18 templates, each block with fresh α, h and k, so
// no two requests of a run share a cache key. Parameterless metrics vary k
// with the block index; the ranges keep every key distinct.
func (w *workload) coldMixed(rng *rand.Rand, n int) {
	alpha := func() float64 { return 0.3 + 0.699*rng.Float64() }
	for b := 0; len(w.list) < n || b%rounds != 0; b++ {
		first := len(w.queries)
		w.add("/rank", "ind", serve.WireQuery{Metric: "prfe", Output: "topk", Alpha: alpha(), K: 10})
		w.add("/rank", "ind", serve.WireQuery{Metric: "prfe", Output: "ranking", Alpha: alpha()})
		w.add("/rank", "ind", serve.WireQuery{Metric: "prfe", Output: "values", Alpha: alpha()})
		w.add("/rank", "ind", serve.WireQuery{Metric: "pth", Output: "topk", H: 5 + b%45, K: 10 + b/45})
		w.add("/rank", "ind", serve.WireQuery{Metric: "pth", Output: "topk", H: 50 + b%45, K: 10 + b/45})
		w.add("/rank", "ind", serve.WireQuery{Metric: "erank", Output: "topk", K: 1 + 2*b})
		w.add("/rank", "ind", serve.WireQuery{Metric: "erank", Output: "topk", K: 2 + 2*b})
		w.add("/rank", "ind", serve.WireQuery{Metric: "expectedrank", Output: "topk", K: 1 + 2*b})
		w.add("/rank", "ind", serve.WireQuery{Metric: "expectedrank", Output: "topk", K: 2 + 2*b})
		w.add("/rank", "ind", serve.WireQuery{Metric: "globaltopk", Output: "topk", K: 5 + 2*b})
		w.add("/rank", "ind", serve.WireQuery{Metric: "globaltopk", Output: "topk", K: 6 + 2*b})
		w.add("/rank", "small", serve.WireQuery{Metric: "medianrank", Output: "topk", K: 1 + b})
		w.add("/rank", "xrel", serve.WireQuery{Metric: "prfe", Output: "topk", Alpha: alpha(), K: 10})
		w.add("/rank", "xrel", serve.WireQuery{Metric: "prfe", Output: "ranking", Alpha: alpha()})
		w.add("/rank", "xrel", serve.WireQuery{Metric: "pth", Output: "topk", H: 2 + b%20, K: 5 + b/20})
		w.add("/rank", "chain", serve.WireQuery{Metric: "prfe", Output: "topk", Alpha: alpha(), K: 10})
		w.add("/rank", "chain", serve.WireQuery{Metric: "prfe", Output: "ranking", Alpha: alpha()})
		w.add("/rankbatch", "ind", serve.WireQuery{Metric: "prfe", Output: "topk", Alphas: grid16(0.3 + 0.3*rng.Float64()), K: 10})
		block := make([]request, 0, len(w.queries)-first)
		for q := first; q < len(w.queries); q++ {
			block = append(block, request{q: q, gzip: (b+q)%2 == 0})
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		w.list = append(w.list, block...)
	}
	// Warm-up materializes the lazily opened independent views with keys
	// the measured list never uses (its α are all ≥ 0.3).
	for _, ds := range []string{"ind", "small"} {
		w.warm = append(w.warm, request{q: w.add("/rank", ds, serve.WireQuery{Metric: "prfe", Output: "values", Alpha: 0.25})})
	}
}

// swapUnderRead: the reader cycles through dashboard queries on live —
// certifiable small-k PRF-e top-k on /rankbatch (answered from a stored
// prefix while the view is cold) and /rank queries that force the full
// view — in a fresh seeded order each cycle.
func (w *workload) swapUnderRead(rng *rand.Rand, n int) {
	for _, a := range []float64{0.5, 0.7, 0.8, 0.9} {
		w.add("/rankbatch", liveName, serve.WireQuery{Metric: "prfe", Output: "topk", Alphas: []float64{a}, K: 10})
	}
	w.add("/rankbatch", liveName, serve.WireQuery{Metric: "prfe", Output: "topk", Alphas: []float64{0.6, 0.7, 0.8, 0.9}, K: 5})
	w.add("/rankbatch", liveName, serve.WireQuery{Metric: "prfe", Output: "topk", Alphas: []float64{0.55, 0.75, 0.95}, K: 20})
	w.add("/rank", liveName, serve.WireQuery{Metric: "prfe", Output: "ranking", Alpha: 0.9})
	w.add("/rank", liveName, serve.WireQuery{Metric: "prfe", Output: "ranking", Alpha: 0.95})
	w.add("/rank", liveName, serve.WireQuery{Metric: "prfe", Output: "topk", Alpha: 0.85, K: 10})
	w.add("/rank", liveName, serve.WireQuery{Metric: "prfe", Output: "topk", Alpha: 0.99, K: 10})
	for q := range w.queries {
		w.warm = append(w.warm, request{q: q}, request{q: q, gzip: true})
	}
	for len(w.list) < n {
		for _, q := range rng.Perm(len(w.queries)) {
			w.list = append(w.list, request{q: q, gzip: rng.Intn(2) == 0})
		}
	}
	w.list = w.list[:n]
}

// payloadFor maps a dataset generation (0 = the initial store content,
// g ≥ 1 = after the g-th admin POST) to the payload served under live.
func (w *workload) payloadFor(gen int) payload {
	if gen == 0 {
		for _, p := range w.payloads {
			if p.name == liveName {
				return p
			}
		}
	}
	return w.swaps[(gen-1)%len(w.swaps)]
}
