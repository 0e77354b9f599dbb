package main

// Hosting the server under test: cmd/prfserve as a separate process over
// the pre-populated store (the end-to-end runs), or serve.New in this
// process with decorated engines (the traced run).

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/store"
)

// proc is a running prfserve process.
type proc struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{}
}

// startServer execs prfserve with its default flags plus -store and
// -admin-token, and returns once /healthz answers and /datasets lists
// every name in want. The duration runs from exec to that point.
func startServer(ctx context.Context, bin, storeDir string, want []string) (*proc, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-store", storeDir, "-admin-token", adminToken, "-listen", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting prfserve: %w", err)
	}
	p := &proc{cmd: cmd, drained: make(chan struct{})}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "prfserve: listening on "); ok {
			p.base = "http://" + addr
			break
		}
	}
	go func() {
		_, _ = io.Copy(io.Discard, out) // keep the pipe from filling
		close(p.drained)
	}()
	if p.base == "" {
		p.stop()
		return nil, 0, errors.New("prfserve exited before listening")
	}
	c := newLoadClient(p.base)
	defer c.close()
	if err := ready(ctx, c, want); err != nil {
		p.stop()
		return nil, 0, err
	}
	return p, time.Since(t0), nil
}

// ready checks /healthz and that /datasets lists every wanted name.
func ready(ctx context.Context, c *loadClient, want []string) error {
	if body, err := c.get(ctx, "/healthz"); err != nil || strings.TrimSpace(string(body)) != "ok" {
		return fmt.Errorf("healthz: %q, %v", body, err)
	}
	body, err := c.get(ctx, "/datasets")
	if err != nil {
		return err
	}
	var infos []serve.DatasetInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return fmt.Errorf("datasets: %w", err)
	}
	for _, name := range want {
		if !slices.ContainsFunc(infos, func(d serve.DatasetInfo) bool { return d.Name == name }) {
			return fmt.Errorf("datasets: %q missing from %s", name, body)
		}
	}
	return nil
}

// stop sends SIGTERM, waits for the process (killing it after 10 s) and
// for its output to drain.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
	<-p.drained
}

// cpuSeconds reads user+system CPU of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state).
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (utime + stime) / clockTicks, nil
}

// peakRSSMB reads VmHWM from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPUSeconds is this process's user+system CPU.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// inproc is a serve.Server hosted in this process on a loopback listener.
type inproc struct {
	srv  *http.Server
	base string
	done chan error
}

// startInProcess builds a server with prfserve's default options over st
// and registers every stored dataset through Store.OpenEngine + AddDataset.
// With a tracer, engines are wrapped in spanRanker and the handler in
// tracedHandler.
func startInProcess(st *store.Store, t *tracer) (*inproc, error) {
	s := serve.New(serve.Options{
		DefaultTimeout:    10 * time.Second,
		MaxTimeout:        2 * time.Minute,
		CacheCapacity:     engine.DefaultCacheCapacity,
		ByteCacheCapacity: serve.DefaultByteCacheCapacity,
		Store:             st,
		AdminToken:        adminToken,
	})
	names, err := st.Names()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		e, _, err := st.OpenEngine(name)
		if err != nil {
			return nil, err
		}
		if t != nil {
			e = engine.New(spanRanker{r: e.Ranker(), t: t})
		}
		if err := s.AddDataset(name, e); err != nil {
			return nil, err
		}
	}
	var h http.Handler = s
	if t != nil {
		h = tracedHandler{next: s, t: t}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &inproc{srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { p.done <- p.srv.Serve(ln) }()
	return p, nil
}

func (p *inproc) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.srv.Shutdown(ctx)
	if serr := <-p.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// counters accumulates cache counters across /stats snapshots. A dataset
// whose generation changed between two snapshots restarted its counters,
// so the later snapshot counts whole.
type counters struct {
	last                                  map[string]serve.DatasetStats
	byteHits, byteMisses, byteEvict       int64
	shared                                int64
	engineHits, engineMisses, engineEvict int64
}

func (c *counters) add(st serve.StatsResponse) {
	if c.last != nil {
		for name, cur := range st.Datasets {
			prev, seen := c.last[name]
			if !seen || prev.Generation != cur.Generation {
				prev = serve.DatasetStats{}
			}
			if cur.ByteCache != nil {
				pb := prev.ByteCache
				if pb == nil {
					pb = &serve.ByteCacheStats{}
				}
				c.byteHits += cur.ByteCache.Hits - pb.Hits
				c.byteMisses += cur.ByteCache.Misses - pb.Misses
				c.byteEvict += cur.ByteCache.Evictions - pb.Evictions
				c.shared += cur.ByteCache.Shared - pb.Shared
			}
			if cur.Cache != nil {
				pc := prev.Cache
				if pc == nil {
					pc = &engine.CacheStats{}
				}
				c.engineHits += cur.Cache.Hits - pc.Hits
				c.engineMisses += cur.Cache.Misses - pc.Misses
				c.engineEvict += cur.Cache.Evictions - pc.Evictions
			}
		}
	}
	c.last = st.Datasets
}
