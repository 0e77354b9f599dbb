package main

// The benchmark's own load client: one keep-alive connection for its one
// closed-loop caller, no transparent gzip inflate (a
// gzip-negotiated body is drained as raw bytes and checked against the
// reference's compressed bytes), and per-request latency from send to the
// last body byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

type loadClient struct {
	hc   *http.Client
	base string
}

func newLoadClient(base string) *loadClient {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		DisableCompression:  true,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
	}
	return &loadClient{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

type response struct {
	status  int
	gzipped bool
	body    []byte
}

// send POSTs one query and drains the body into buf.
func (c *loadClient) send(ctx context.Context, q *query, gz bool, id int64, buf *bytes.Buffer) (response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+q.path, bytes.NewReader(q.body))
	if err != nil {
		return response{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	if id != noReq {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, gzipped: resp.Header.Get("Content-Encoding") == "gzip", body: buf.Bytes()}, nil
}

// verifier checks responses. begin runs just before a request is sent; its
// token reaches check with the response.
type verifier interface {
	begin() int
	check(r request, token int, resp response) bool
}

// fixedVerifier: one reference per query.
type fixedVerifier struct{ refs *refs }

func (fixedVerifier) begin() int { return 0 }

func (v fixedVerifier) check(r request, _ int, resp response) bool {
	return v.refs.byGen[0][r.q].ok(resp.body, resp.gzipped)
}

// swapVerifier accepts the answer of any generation that was live while
// the request was in flight: from the last swap completed before it was
// sent to the last swap started before its reply arrived.
type swapVerifier struct {
	w             *workload
	refs          *refs
	started, done atomic.Int64
}

func (v *swapVerifier) begin() int { return int(v.done.Load()) }

func (v *swapVerifier) check(r request, lo int, resp response) bool {
	for g := lo; g <= int(v.started.Load()); g++ {
		if v.refs.byGen[v.w.refGen(g)][r.q].ok(resp.body, resp.gzipped) {
			return true
		}
	}
	return false
}

// sample is one played request.
type sample struct {
	start time.Time
	dur   time.Duration
	bytes int
	ok    bool
}

// phase is one list played to completion.
type phase struct {
	samples    []sample
	wall       time.Duration
	failed     int
	mismatches []string // the first few failures, for the report
}

func (p *phase) completed() int { return len(p.samples) - p.failed }

// play runs list to completion on one closed-loop caller. ids, when
// non-nil, gives each request the id the traced server records it under.
// gate, when non-nil, runs before request i is sent; progress, when
// non-nil, after each request with the number completed so far.
func (c *loadClient) play(ctx context.Context, w *workload, list []request, v verifier, ids func(i int) int64, gate func(i int), progress func(done int)) *phase {
	p := &phase{samples: make([]sample, len(list))}
	var buf bytes.Buffer
	start := time.Now()
	for i, r := range list {
		id := int64(noReq)
		if ids != nil {
			id = ids(i)
		}
		if gate != nil {
			gate(i)
		}
		token := v.begin()
		t0 := time.Now()
		resp, err := c.send(ctx, &w.queries[r.q], r.gzip, id, &buf)
		d := time.Since(t0)
		ok := err == nil && resp.status == http.StatusOK && v.check(r, token, resp)
		p.samples[i] = sample{start: t0, dur: d, bytes: len(resp.body), ok: ok}
		if !ok {
			p.failed++
			if len(p.mismatches) < 5 {
				p.mismatches = append(p.mismatches, describeFailure(w, r, resp, err))
			}
		}
		if progress != nil {
			progress(i + 1)
		}
	}
	p.wall = time.Since(start)
	return p
}

// round is one of the measured list's consecutive rounds.
type round struct {
	wall                 time.Duration
	completed            int
	p50                  float64 // ms
	serverCPU, clientCPU float64 // seconds
}

// measure plays the workload's measured list in rounds, with a barrier
// between rounds; serverCPU, when non-nil, reads the server's CPU seconds.
// On swap-under-read the reader and the admin client advance in lock step:
// swap i is POSTed once the reader has completed i·perSwap requests, and
// the reader starts request (i+1)·perSwap only after swap i is installed.
// Every run so interleaves reads and writes at the same points of the
// list, and each generation serves perSwap reads.
func measure(ctx context.Context, w *workload, c, admin *loadClient, v verifier, ids func(int) int64, before func(), serverCPU func() (float64, error)) (*phase, []round, []float64, error) {
	var gate func(int)
	var progress func(int)
	var lat []float64
	errc := make(chan error, 1)
	if w.underRead {
		sv := v.(*swapVerifier)
		due := make(chan struct{}, w.swapCount)     // one send per swap
		swapped := make(chan struct{}, w.swapCount) // one send per swap
		progress = func(done int) {
			if done%perSwap == 0 && done/perSwap <= w.swapCount {
				due <- struct{}{}
			}
		}
		gate = func(i int) {
			for need := int64(i/perSwap - 1); i%perSwap == 0 && sv.done.Load() < need; {
				if _, ok := <-swapped; !ok {
					return // the admin client stopped early; its error ends the run
				}
			}
		}
		go func() {
			defer close(swapped)
			var err error
			lat, err = admin.swaps(ctx, w, due, swapped, sv, before)
			errc <- err
		}()
	} else {
		errc <- nil
	}
	// Every round runs even after an error, so the reader always reaches the
	// end of the list and the admin goroutine always gets all its signals.
	var cpuErr error
	readCPU := func() float64 {
		if serverCPU == nil {
			return 0
		}
		v, err := serverCPU()
		if err != nil && cpuErr == nil {
			cpuErr = err
		}
		return v
	}
	all := &phase{}
	var rs []round
	per := len(w.list) / rounds
	for r := 0; r < rounds; r++ {
		lo, hi := r*per, (r+1)*per
		if r == rounds-1 {
			hi = len(w.list)
		}
		s0 := readCPU()
		c0 := selfCPUSeconds()
		var rid func(int) int64
		if ids != nil {
			rid = func(i int) int64 { return ids(lo + i) }
		}
		var rgate func(int)
		if gate != nil {
			rgate = func(i int) { gate(lo + i) }
		}
		ph := c.play(ctx, w, w.list[lo:hi], v, rid, rgate, func(done int) {
			if progress != nil {
				progress(lo + done)
			}
		})
		c1 := selfCPUSeconds()
		s1 := readCPU()
		rs = append(rs, round{wall: ph.wall, completed: ph.completed(), p50: median(latencies(ph)), serverCPU: s1 - s0, clientCPU: c1 - c0})
		all.samples = append(all.samples, ph.samples...)
		all.wall += ph.wall
		all.failed += ph.failed
		all.mismatches = append(all.mismatches, ph.mismatches...)
	}
	if err := errors.Join(<-errc, cpuErr); err != nil {
		return nil, nil, nil, err
	}
	return all, rs, lat, nil
}

func describeFailure(w *workload, r request, resp response, err error) string {
	q := &w.queries[r.q]
	switch {
	case err != nil:
		return fmt.Sprintf("%s %s: %v", q.path, q.body, err)
	case resp.status != http.StatusOK:
		return fmt.Sprintf("%s %s: status %d: %.200s", q.path, q.body, resp.status, resp.body)
	default:
		return fmt.Sprintf("%s %s (gzip=%v): body of %d bytes differs from the reference", q.path, q.body, r.gzip, len(resp.body))
	}
}

// post replaces a dataset through the admin endpoint and returns the new
// store generation.
func (c *loadClient) post(ctx context.Context, p payload) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/datasets/"+p.name+"?kind="+p.kind, bytes.NewReader(p.data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	req.Header.Set("Content-Type", "text/csv")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /datasets/%s: status %d: %.200s", p.name, resp.StatusCode, body)
	}
	var info store.Info
	if err := json.Unmarshal(body, &info); err != nil {
		return 0, fmt.Errorf("POST /datasets/%s: %w", p.name, err)
	}
	return info.Generation, nil
}

// swaps POSTs the workload's swap payloads swapCount times and returns
// each POST's latency in ms. Each POST waits for a signal on due and
// signals swapped once installed; before, when non-nil, runs ahead of
// every POST.
func (c *loadClient) swaps(ctx context.Context, w *workload, due <-chan struct{}, swapped chan<- struct{}, v *swapVerifier, before func()) ([]float64, error) {
	lat := make([]float64, 0, w.swapCount)
	var prev uint64
	for i := 1; i <= w.swapCount; i++ {
		<-due
		if before != nil {
			before()
		}
		v.started.Add(1)
		t0 := time.Now()
		gen, err := c.post(ctx, w.payloadFor(i))
		lat = append(lat, ms(time.Since(t0)))
		v.done.Add(1)
		swapped <- struct{}{}
		if err != nil {
			return nil, err
		}
		if prev != 0 && gen != prev+1 {
			return nil, fmt.Errorf("admin POST %d installed generation %d after %d", i, gen, prev)
		}
		prev = gen
	}
	return lat, nil
}

// get fetches a GET endpoint's body.
func (c *loadClient) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

func (c *loadClient) stats(ctx context.Context) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	body, err := c.get(ctx, "/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}
