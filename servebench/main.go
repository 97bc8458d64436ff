// Command servebench is the end-to-end serving benchmark: it drives an
// in-process gmtserve server (serve.Server behind Handler() on a loopback
// listener) with one named workload, checks every response outside the
// timed phase against a reference computed apart from serving, and prints
// one JSON result line. With -trace 1 it also replays the workload's
// requests through each layer's public functions and reports per-layer
// metrics instead of the end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// processStart is taken during package initialization, before main, so
// setup_s covers the process's whole cold set-up.
var processStart = time.Now()

// outDir holds span dumps, result files and the scratch cache
// directories of running benchmarks, relative to the working directory.
const outDir = ".bench_out"

// hardLimit bounds a whole run; past it the process exits non-zero
// rather than run on unbounded (a run normally takes under a minute).
const hardLimit = 170 * time.Second

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
	name := flag.String("workload", "", "workload: warm-hits, cold-kernels or inline-corpus")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = replay through each layer and report per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	time.AfterFunc(hardLimit-time.Since(processStart), func() {
		fmt.Fprintf(os.Stderr, "servebench: run exceeded %v\n", hardLimit)
		os.Exit(3)
	})
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	file := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := os.WriteFile(file, append(line, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: writing result:", err)
	}
	fmt.Println(string(line))
}

func run(name string, seed int64, seconds time.Duration, traced bool) (*result, error) {
	wl, err := workloadByName(name, seed)
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(outDir, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	h, err := newHarness(scratch)
	if err != nil {
		return nil, err
	}
	defer h.close()

	setupRecs, err := setUp(h, wl)
	if err != nil {
		return nil, err
	}
	setupS := time.Since(processStart).Seconds()

	ch := newChecker()
	ch.check(setupRecs, false)
	// The exact metrics' references, computed before timing so that
	// rounds are not separated by long reference builds.
	ch.ensureRefs(wl.exact())
	tp, err := timedPhase(h, wl, seconds, ch)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "servebench: %s seed %d: set-up %.2fs, %d calls in %d rounds over %.2fs; calls/s per round %.4g\n",
		name, seed, setupS, len(tp.lat), tp.rounds, tp.elapsed.Seconds(), tp.roundRPS)
	ch.report(len(tp.lat))

	res := &result{Correct: ch.complete, Attempted: len(tp.lat), Failed: ch.failed}
	if traced {
		rp, err := replay(wl, tp, filepath.Join(scratch, "replay-cache"),
			filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed)))
		if err != nil {
			return nil, err
		}
		res.Metrics = layerMetrics(tp, rp)
	} else {
		res.Metrics = endToEndMetrics(wl, tp, ch, setupS)
	}
	return res, nil
}

// setUp starts the timed server — for warm-hits after filling its cache
// directory through a first server, one partitioner at a time, so that
// the second server's open runs the restart recovery scan — and sends it
// the workload's untimed warm-up calls.
func setUp(h *harness, wl *workload) ([]record, error) {
	var recs []record
	if len(wl.fill) == 0 {
		if _, err := h.start("", wl.memEntries); err != nil {
			return nil, err
		}
	} else {
		dir, err := h.start("", 0)
		if err != nil {
			return nil, err
		}
		for _, phase := range wl.fill {
			calls := make([]call, len(phase))
			for i, c := range phase {
				calls[i] = singleCall(c)
			}
			recs = append(recs, h.runShared(calls)...)
		}
		if _, err := h.start(dir, wl.memEntries); err != nil {
			return nil, err
		}
	}
	return append(recs, h.runRound(wl, wl.warmup)...), nil
}

// timed is the outcome of the timed phase. It keeps no response: each
// round is checked as it ends.
type timed struct {
	lat     []float64 // every call's latency, ms
	rounds  int
	replay  []call // the calls of the rounds the traced run replays
	elapsed time.Duration
	alloc   uint64
	gcs     uint32
	rss     []float64 // resident set samples taken during the rounds
	stats   statsDelta
	// roundRPS and roundCPU are each round's calls per second and CPU
	// milliseconds per call; the run reports their medians, which a
	// burst of load from outside the process moves less than totals.
	roundRPS, roundCPU []float64
}

// timedPhase runs whole rounds until the measured time reaches seconds.
// Only the rounds themselves are timed: drawing a round's inputs,
// starting a fresh server and checking the round happen between the
// measured windows.
func timedPhase(h *harness, wl *workload, seconds time.Duration, ch *checker) (*timed, error) {
	tp := &timed{}
	for tp.elapsed < seconds {
		calls := wl.round(tp.rounds)
		if wl.freshServer {
			prev := h.cacheDir
			if _, err := h.start("", wl.memEntries); err != nil {
				return nil, err
			}
			os.RemoveAll(prev)
		}
		s0, err := h.stats()
		if err != nil {
			return nil, err
		}
		rss := startRSS(50 * time.Millisecond)
		u0 := readUsage()
		recs := h.runRound(wl, calls)
		u1 := readUsage()
		tp.rss = append(tp.rss, rss.finish()...)
		s1, err := h.stats()
		if err != nil {
			return nil, err
		}
		tp.stats.add(s0, s1)
		wall, cpu := u1.wall.Sub(u0.wall), u1.cpu-u0.cpu
		tp.elapsed += wall
		tp.roundRPS = append(tp.roundRPS, float64(len(recs))/wall.Seconds())
		tp.roundCPU = append(tp.roundCPU, float64(cpu.Nanoseconds())/1e6/float64(len(recs)))
		tp.alloc += u1.allocated - u0.allocated
		tp.gcs += u1.gcs - u0.gcs
		for _, r := range recs {
			tp.lat = append(tp.lat, float64(r.latency.Nanoseconds())/1e6)
		}
		ch.check(recs, true)
		if tp.rounds < wl.replayRounds {
			tp.replay = append(tp.replay, calls...)
		}
		tp.rounds++
	}
	return tp, nil
}
