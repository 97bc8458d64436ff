package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

// clients is the number of closed-loop clients and of connections; it
// is at most nproc on the 2-vCPU machines the bounds were set on.
const clients = 2

// harness serves an in-process serve.Server behind Handler() on a
// loopback listener. The server can be swapped between rounds.
type harness struct {
	dir    string // scratch directory for cache directories
	srv    *http.Server
	base   string
	client *http.Client
	cur    atomic.Pointer[http.Handler]
	// cacheDir is the current server's cache directory; nsrv numbers
	// the directories start creates.
	cacheDir string
	nsrv     int
}

func newHarness(dir string) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	h := &harness{
		dir:  dir,
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
	}
	h.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*h.cur.Load()).ServeHTTP(w, r)
	})}
	go h.srv.Serve(ln)
	return h, nil
}

// start puts a new server with the gmtserve defaults (degradation on)
// behind the listener, over cacheDir ("" = a new empty directory).
func (h *harness) start(cacheDir string, memEntries int) (string, error) {
	if cacheDir == "" {
		h.nsrv++
		cacheDir = filepath.Join(h.dir, "cache-"+strconv.Itoa(h.nsrv))
	}
	s, err := serve.New(serve.Options{CacheDir: cacheDir, MemEntries: memEntries, Degrade: true})
	if err != nil {
		return "", fmt.Errorf("starting server: %w", err)
	}
	handler := s.Handler()
	h.cacheDir = cacheDir
	h.cur.Store(&handler)
	return cacheDir, nil
}

func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	h.srv.Shutdown(ctx)
	h.client.CloseIdleConnections()
}

// record is one completed call.
type record struct {
	call    *call
	status  int
	body    []byte
	latency time.Duration
	err     error
}

func (h *harness) do(c *call) record {
	path := "/v1/schedule"
	if c.Batch {
		path = "/v1/batch"
	}
	t0 := time.Now()
	resp, err := h.client.Post(h.base+path, "application/json", bytes.NewReader(c.Body))
	if err != nil {
		return record{call: c, err: err, latency: time.Since(t0)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return record{call: c, status: resp.StatusCode, body: body, latency: time.Since(t0), err: err}
}

// runShared sends calls from every client, each taking the next call
// when its previous one returns, and waits for all of them.
func (h *harness) runShared(calls []call) []record {
	recs := make([]record, len(calls))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(calls) {
					return
				}
				recs[i] = h.do(&calls[i])
			}
		}()
	}
	wg.Wait()
	return recs
}

// runRound sends one round's calls the workload's way.
func (h *harness) runRound(wl *workload, calls []call) []record {
	if wl.paired {
		return h.runPaired(calls)
	}
	return h.runShared(calls)
}

// runPaired sends each call from every client at the same moment and
// waits for all copies before sending the next call.
func (h *harness) runPaired(calls []call) []record {
	recs := make([]record, 0, clients*len(calls))
	out := make([]record, clients)
	for i := range calls {
		var wg sync.WaitGroup
		for k := 0; k < clients; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				out[k] = h.do(&calls[i])
			}(k)
		}
		wg.Wait()
		recs = append(recs, out...)
	}
	return recs
}

func (h *harness) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := h.client.Get(h.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// statsDelta accumulates server counters over the timed phase.
type statsDelta struct {
	HitMem, HitDisk, Miss, EvictMem, EvictDisk, Compute, Merged, Rejected int64
}

func (d *statsDelta) add(a, b serve.Stats) {
	d.HitMem += b.CacheHitMem - a.CacheHitMem
	d.HitDisk += b.CacheHitDisk - a.CacheHitDisk
	d.Miss += b.CacheMiss - a.CacheMiss
	d.EvictMem += b.CacheEvictMem - a.CacheEvictMem
	d.EvictDisk += b.CacheEvictDisk - a.CacheEvictDisk
	d.Compute += b.Compute - a.Compute
	d.Merged += b.SingleflightMerged - a.SingleflightMerged
	d.Rejected += b.QueueRejected - a.QueueRejected
}

// procUsage is a point-in-time reading of the process's resource use.
type procUsage struct {
	wall      time.Time
	cpu       time.Duration
	allocated uint64
	gcs       uint32
}

func readUsage() procUsage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUsage{
		wall:      time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocated: ms.TotalAlloc,
		gcs:       ms.NumGC,
	}
}

// rssSampler records the resident set size every period until stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startRSS(period time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			if mb, err := rssMB(); err == nil {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, errors.New("short /proc/self/statm")
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
