// Command prfbench is the repository's end-to-end benchmark: it serves
// seeded datasets with cmd/prfserve over loopback HTTP, plays one of two
// workloads against it from a closed-loop client, checks every answer
// against an in-process reference, and prints the end-to-end metrics. With
// -trace 1 it instead reports the per-layer metrics of a traced run. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it through run.sh, which builds cmd/prfserve and this program from
// the checkout first:
//
//	bash prfbench/run.sh --workload cold-mixed --seed 1 --seconds 20 --trace 0
//
// LAYERS.md maps every metric onto the layer it measures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/store"
)

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	prfserve  string // path of the prfserve binary
	workdir   string // scratch space; each run uses a fresh subdirectory
	tiny      bool   // small datasets (self-test)
	corrupt   int    // ≥ 0: corrupt this query's reference (self-test)
	setupRuns int    // server starts timed for setup_s
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-mixed | swap-under-read")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated dataset and request list")
	flag.IntVar(&cfg.seconds, "seconds", 15, "target length of the measured phase; sizes the request list")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.prfserve, "prfserve", "", "prfserve binary built from the tree under test")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.corrupt = -1
	cfg.setupRuns = 21
	if cfg.prfserve == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "prfbench: need -prfserve, -seconds ≥ 1 and -trace 0|1")
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and prints the human-readable report.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	sz := fullSizes
	if cfg.tiny {
		sz = tinySizes
	}
	w, err := buildWorkload(cfg.workload, cfg.seed, cfg.seconds, sz)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, p := range w.payloads {
		if err := importPayload(st, p); err != nil {
			return nil, err
		}
		names = append(names, p.name)
	}
	// A traced run compares the reference's timings (the side ladder) with
	// the traced replay, so it evaluates them at the replay's concurrency:
	// one reader.
	workers := runtime.NumCPU()
	if cfg.trace {
		workers = 1
	}
	rf, err := computeRefs(ctx, w, workers, cfg.corrupt)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(out, "prfbench %s seed=%d: %s\n", w.name, cfg.seed, w.why)
	fmt.Fprintf(out, "  1 closed-loop reader, %d measured requests over %d distinct queries, %d warm-up, %d admin POSTs; store on %s (fsync per import)\n",
		len(w.list), len(w.queries), len(w.warm), w.swapCount, fsName(storeDir))
	runtime.GC()
	e2e, err := measureProcess(ctx, cfg, w, rf, st, storeDir, names)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	e2e.count(res)
	for _, ph := range []*phase{e2e.warm, e2e.main} {
		for _, m := range ph.mismatches {
			fmt.Fprintln(out, "  FAILED:", m)
		}
	}
	if !cfg.trace {
		e2e.report(out, res, w.underRead)
	} else {
		if err := traced(ctx, w, rf, st, dir, e2e, res, out, filepath.Join(cfg.workdir, "trace-"+w.name+".tsv")); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "  %-34s %12.6g %-8s (%d of %d requests)\n", "failed_share", float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	return res, nil
}

func importPayload(st *store.Store, p payload) error {
	ds, err := p.parse()
	if err != nil {
		return err
	}
	_, err = st.Import(p.name, ds)
	return err
}

// resetLive reinstalls the initial live payload, so every phase starts from
// generation 0 of the swap sequence.
func resetLive(st *store.Store, w *workload) error {
	return importPayload(st, w.payloadFor(0))
}

// e2eResult is one end-to-end run against the prfserve process.
type e2eResult struct {
	setup      []float64 // seconds per server start
	warm, main *phase
	rounds     []round
	rssMB      float64
	admin      []float64 // ms per admin POST
}

func measureProcess(ctx context.Context, cfg config, w *workload, rf *refs, st *store.Store, storeDir string, names []string) (*e2eResult, error) {
	if err := resetLive(st, w); err != nil {
		return nil, err
	}
	r := &e2eResult{}
	var p *proc
	defer func() {
		if p != nil {
			p.stop()
		}
	}()
	for i := 0; i < cfg.setupRuns; i++ {
		if p != nil {
			p.stop()
		}
		var err error
		var d time.Duration
		if p, d, err = startServer(ctx, cfg.prfserve, storeDir, names); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, d.Seconds())
	}
	pid := p.cmd.Process.Pid
	c := newLoadClient(p.base)
	defer c.close()
	admin := newLoadClient(p.base)
	defer admin.close()

	v := verifierFor(w, rf)
	r.warm = c.play(ctx, w, w.warm, v, nil, nil, nil)
	runtime.GC()
	var err error
	r.main, r.rounds, r.admin, err = measure(ctx, w, c, admin, v, nil, nil, func() (float64, error) { return cpuSeconds(pid) })
	if err != nil {
		return nil, err
	}
	if r.rssMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	return r, nil
}

func verifierFor(w *workload, rf *refs) verifier {
	if w.underRead {
		return &swapVerifier{w: w, refs: rf}
	}
	return fixedVerifier{refs: rf}
}

// count adds this run's requests to the result's totals.
func (r *e2eResult) count(res *result) {
	for _, ph := range []*phase{r.warm, r.main} {
		res.Attempted += len(ph.samples)
		res.Failed += ph.failed
	}
	res.Attempted += len(r.admin)
}

func (r *e2eResult) report(out io.Writer, res *result, underRead bool) {
	put := func(name, unit string, v float64, note string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(out, "  %-24s %12.6g %-6s %s\n", name, v, unit, note)
	}
	lat := latencies(r.main)
	put("setup_s", "s", median(r.setup), fmt.Sprintf("(median of %d server starts)", len(r.setup)))
	put("throughput_rps", "req/s", medianOf(r.rounds, roundThroughput),
		fmt.Sprintf("(median of %d rounds, %d requests in %.2f s)", len(r.rounds), r.main.completed(), r.main.wall.Seconds()))
	put("latency_p50_ms", "ms", medianOf(r.rounds, func(rd round) float64 { return rd.p50 }),
		fmt.Sprintf("(median of %d round medians, n=%d)", len(r.rounds), len(lat)))
	put("latency_p99_ms", "ms", quantile(lat, 0.99), fmt.Sprintf("(n=%d, %d beyond)", len(lat), len(lat)-int(0.99*float64(len(lat)))))
	put("server_cpu_ms_per_req", "ms", medianOf(r.rounds, func(rd round) float64 { return 1000 * rd.serverCPU / float64(rd.completed) }),
		fmt.Sprintf("(median of %d rounds; client CPU %.3f ms/req)", len(r.rounds), r.clientCPUPerReq()))
	put("server_peak_rss_mb", "MB", r.rssMB, "(VmHWM after the measured phase)")
	if underRead {
		fmt.Fprintf(out, "  %-24s %12.6g %-6s (POST /datasets/live under read load, n=%d; not a BENCHMARK.json metric)\n",
			"admin_swap_p50_ms", median(r.admin), "ms", len(r.admin))
	}
}

func roundThroughput(rd round) float64 { return float64(rd.completed) / rd.wall.Seconds() }

// clientCPUPerReq is this process's CPU per request, median over rounds.
func (r *e2eResult) clientCPUPerReq() float64 {
	return medianOf(r.rounds, func(rd round) float64 { return 1000 * rd.clientCPU / float64(rd.completed) })
}

func medianOf(rs []round, f func(round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, rd := range rs {
		xs[i] = f(rd)
	}
	return median(xs)
}

func latencies(p *phase) []float64 {
	lat := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		if s.ok {
			lat = append(lat, ms(s.dur))
		}
	}
	return lat
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fsName names the filesystem holding dir.
func fsName(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown filesystem"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(s.Type)]; ok {
		return n
	}
	return fmt.Sprintf("filesystem 0x%x", s.Type)
}
