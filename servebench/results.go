package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/par"
	"repro/internal/serve"
)

// checker checks calls one round at a time, right after the round and
// outside the timed window, and keeps only what later rounds are checked
// against: each pipeline's reference and a hash of the first body each
// key served. So the benchmark's own memory stays flat over a run.
type checker struct {
	failed int
	// complete is false when some response could not be vouched for: a
	// reference failed to compute, or a generated program broke a
	// property the method must have.
	complete bool
	refs     map[string]*reference // by pipeline key
	first    map[string][32]byte   // by cell key
	verdicts map[[32]byte][]string // checkResponse by (cell key, body)
	reasons  map[string]int
}

func newChecker() *checker {
	return &checker{
		complete: true,
		refs:     map[string]*reference{},
		first:    map[string][32]byte{},
		verdicts: map[[32]byte][]string{},
		reasons:  map[string]int{},
	}
}

// ensureRefs computes, on clients workers, the references cells need
// and the checker lacks: one per pipeline, with cycles once any of its
// cells simulates.
func (ch *checker) ensureRefs(cells []*cellSpec) {
	need := map[string]*cellSpec{}
	var keys []string
	for _, c := range cells {
		k := c.pipelineKey()
		ref := ch.refs[k]
		if ref != nil && (ref.HasCycles || ref.Err != nil || !c.Sim) {
			continue
		}
		if need[k] == nil {
			keys = append(keys, k)
		}
		if need[k] == nil || c.Sim {
			need[k] = c
		}
	}
	refs := make([]*reference, len(keys))
	par.Run(context.Background(), clients, len(keys), func(i int) error {
		c := need[keys[i]]
		refs[i] = computeReference(context.Background(), c, c.Sim)
		return nil
	})
	for i, k := range keys {
		ch.refs[k] = refs[i]
		if err := errors.Join(refs[i].Err, refs[i].PropErr); err != nil {
			ch.complete = false
			fmt.Fprintf(os.Stderr, "servebench: reference %s: %v\n", k, err)
		}
	}
}

// item is one cell's answer within a call: a single body or a batch item.
type item struct {
	cell   *cellSpec
	status int
	body   []byte
}

// split returns a call's per-cell answers, or why the call failed whole:
// a transport error, a non-200 status, an undecodable batch.
func split(r record) ([]item, string) {
	if r.err != nil {
		return nil, "transport: " + r.err.Error()
	}
	if r.status != 200 {
		return nil, fmt.Sprintf("status %d", r.status)
	}
	if !r.call.Batch {
		return []item{{r.call.Cells[0], r.status, r.body}}, ""
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(r.body, &br); err != nil {
		return nil, "batch decode: " + err.Error()
	}
	if len(br.Responses) != len(r.call.Cells) {
		return nil, fmt.Sprintf("batch of %d answered %d items", len(r.call.Cells), len(br.Responses))
	}
	items := make([]item, len(br.Responses))
	for j, it := range br.Responses {
		items[j] = item{r.call.Cells[j], it.Status, it.Body}
	}
	return items, ""
}

// checkItem returns every failed check of one answer: its status, (a)
// and (b) against the cell's reference, and (c), that the body is the
// one the key served first.
func (ch *checker) checkItem(it item) []string {
	if it.status != 200 {
		return []string{fmt.Sprintf("item status %d", it.status)}
	}
	key := it.cell.key()
	sum := sha256.Sum256(it.body)
	var bad []string
	if first, ok := ch.first[key]; !ok {
		ch.first[key] = sum
	} else if first != sum {
		bad = append(bad, "c.same-bytes: "+key+" served a body unlike its first")
	}
	v := sha256.Sum256(append([]byte(key+"\x00"), sum[:]...))
	verdict, ok := ch.verdicts[v]
	if !ok {
		verdict = checkResponse(it.body, it.cell, ch.refs[it.cell.pipelineKey()])
		ch.verdicts[v] = verdict
	}
	return append(bad, verdict...)
}

// check checks one round's records. Failures of counted records add to
// failed; set-up records take part in the same-bytes check (c) only as
// the bodies later calls are compared with.
func (ch *checker) check(recs []record, counted bool) {
	var cells []*cellSpec
	for _, r := range recs {
		cells = append(cells, r.call.Cells...)
	}
	ch.ensureRefs(cells)
	for _, r := range recs {
		items, why := split(r)
		var bad []string
		if why != "" {
			bad = []string{why}
		}
		for _, it := range items {
			bad = append(bad, ch.checkItem(it)...)
		}
		if len(bad) == 0 || !counted {
			continue
		}
		ch.failed++
		for _, b := range bad {
			reason, _, _ := strings.Cut(b, ":")
			ch.reasons[reason]++
		}
	}
}

// report writes the failed checks to standard error.
func (ch *checker) report(attempted int) {
	if ch.failed == 0 {
		return
	}
	var rs []string
	for r, n := range ch.reasons {
		rs = append(rs, fmt.Sprintf("%s=%d", r, n))
	}
	sort.Strings(rs)
	fmt.Fprintf(os.Stderr, "servebench: %d of %d calls failed; failed checks: %s\n",
		ch.failed, attempted, strings.Join(rs, " "))
}

// tailQuantile is the percentile behind latency_tail_ms. It is fixed,
// so runs of different lengths report the same statistic, and leaves
// hundreds of samples beyond it in every run: p99 on warm-hits, with
// about 25 beyond it, spread 0.40 over ten runs.
const tailQuantile = 0.90

// exactMetrics returns speedup_geomean and coco_comm_pct: the geomean
// of single-threaded / COCO cycles over the distinct sim-on pipelines of
// the workload's fixed exact set, and the mean COCO communication share
// over its distinct pipelines, both from the references, which run has
// computed before timing.
func exactMetrics(wl *workload, ch *checker) (speedup, commPctMean float64) {
	seen := map[string]bool{}
	var keys []string
	for _, c := range wl.exact() {
		if k := c.pipelineKey(); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys) // a fixed summation order keeps exact metrics exact
	var logSum, pctSum float64
	var nCyc, nRef int
	for _, k := range keys {
		ref := ch.refs[k]
		if ref.Err != nil {
			continue
		}
		nRef++
		pctSum += commPct(ref.Coco)
		if ref.HasCycles {
			nCyc++
			logSum += math.Log(float64(ref.ST) / float64(ref.CocoCycles))
		}
	}
	return math.Exp(logSum / float64(max(nCyc, 1))), pctSum / float64(max(nRef, 1))
}

func endToEndMetrics(wl *workload, tp *timed, ch *checker, setupS float64) map[string]metric {
	n := float64(len(tp.lat))
	q := tailQuantile
	if beyond := n * (1 - q); beyond < 10 {
		fmt.Fprintf(os.Stderr, "servebench: only %.0f samples beyond p%g\n", beyond, 100*q)
	}
	speedup, pct := exactMetrics(wl, ch)
	return map[string]metric{
		"throughput_rps":      {median(tp.roundRPS), "1/s"},
		"latency_p50_ms":      {quantile(tp.lat, 0.5), "ms"},
		"latency_tail_ms":     {quantile(tp.lat, q), "ms"},
		"cpu_ms_per_req":      {median(tp.roundCPU), "ms"},
		"alloc_bytes_per_req": {float64(tp.alloc) / n, "B"},
		"rss_mb":              {median(tp.rss), "MB"},
		"setup_s":             {setupS, "s"},
		"speedup_geomean":     {speedup, "x"},
		"coco_comm_pct":       {pct, "%"},
	}
}
