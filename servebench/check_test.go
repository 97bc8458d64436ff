package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/coco"
	"repro/internal/exp"
	"repro/internal/interp"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// servedCell returns a fresh server's body for ks/gremio with sim on,
// and the benchmark's reference for the cell.
func servedCell(t *testing.T) (*cellSpec, []byte, *reference) {
	t.Helper()
	c := &cellSpec{Kernel: "ks", Partitioner: "gremio", Sim: true}
	s, err := serve.New(serve.Options{Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	req := c.request()
	res := s.Do(context.Background(), &req)
	if res.Status != http.StatusOK {
		t.Fatalf("status %d: %s", res.Status, res.Body)
	}
	ref := computeReference(context.Background(), c, true)
	if ref.Err != nil || ref.PropErr != nil {
		t.Fatalf("reference: %v / %v", ref.Err, ref.PropErr)
	}
	return c, res.Body, ref
}

// doctor re-encodes body after edit changes the decoded response.
func doctor(t *testing.T, body []byte, edit func(r *serve.Response)) []byte {
	t.Helper()
	var r serve.Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	edit(&r)
	out, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func hasCheck(bad []string, name string) bool {
	for _, b := range bad {
		if strings.HasPrefix(b, name+":") {
			return true
		}
	}
	return false
}

func TestCheckResponse(t *testing.T) {
	c, body, ref := servedCell(t)
	if bad := checkResponse(body, c, ref); len(bad) != 0 {
		t.Fatalf("untouched response rejected: %v", bad)
	}
	if same := doctor(t, body, func(*serve.Response) {}); string(same) != string(body) {
		t.Fatalf("re-encoding changes the body; doctored cases would not be comparable")
	}
	for _, tc := range []struct {
		name, check string
		edit        func(r *serve.Response)
	}{
		{"produce != consume", "b.produce-consume", func(r *serve.Response) { r.Comm.Coco.Produce++ }},
		{"produce-sync != consume-sync", "b.produce-consume", func(r *serve.Response) { r.Comm.Naive.ConsumeSync++ }},
		{"fallback without one in the reference", "a.fallback", func(r *serve.Response) { r.Comm.Fallback = "GREMIO" }},
		{"cycles fallback", "a.fallback", func(r *serve.Response) { r.Cycles.Fallback = "single-threaded" }},
		{"one communication count changed", "a.comm-counts", func(r *serve.Response) { r.Comm.Naive.Compute++ }},
		{"one cycle count changed", "a.cycle-counts", func(r *serve.Response) { r.Cycles.Naive++ }},
		{"speedup is not st/coco", "b.speedup", func(r *serve.Response) { r.Cycles.Speedup *= 1.01 }},
		{"partitioner swapped", "a.partitioner", func(r *serve.Response) { r.Partitioner = "DSWP" }},
		{"cycles dropped", "a.cycles", func(r *serve.Response) { r.Cycles = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := checkResponse(doctor(t, body, tc.edit), c, ref)
			if !hasCheck(bad, tc.check) {
				t.Fatalf("doctored response passed check %s; failures: %v", tc.check, bad)
			}
		})
	}
}

func TestCheckSameBytes(t *testing.T) {
	_, body, _ := servedCell(t)
	if err := checkSameBytes([][]byte{body, append([]byte(nil), body...), body}); err != nil {
		t.Fatalf("identical bodies rejected: %v", err)
	}
	other := doctor(t, body, func(r *serve.Response) { r.Comm.Coco.Compute++ })
	if err := checkSameBytes([][]byte{body, body, other}); err == nil {
		t.Fatal("two different bodies for one key accepted")
	}
}

// TestCheckerFailsACallServingAKeyAnotherWay feeds the checker a set-up
// body and a timed body for the same key that differ only in bytes the
// response checks do not look at, and expects the timed call to fail.
func TestCheckerFailsACallServingAKeyAnotherWay(t *testing.T) {
	c, body, _ := servedCell(t)
	cl := singleCall(c)
	spaced := append(append([]byte(nil), body...), ' ')
	ok := newChecker()
	ok.check([]record{{call: &cl, status: 200, body: body}}, false)
	ok.check([]record{{call: &cl, status: 200, body: body}}, true)
	if ok.failed != 0 || !ok.complete {
		t.Fatalf("untouched call: failed %d, complete %v", ok.failed, ok.complete)
	}
	two := newChecker()
	two.check([]record{{call: &cl, status: 200, body: body}}, false)
	two.check([]record{{call: &cl, status: 200, body: spaced}}, true)
	if two.failed != 1 || two.reasons["c.same-bytes"] != 1 {
		t.Fatalf("key served two ways: failed %d, reasons %v", two.failed, two.reasons)
	}
	bad := newChecker()
	bad.check([]record{{call: &cl, status: 503, body: body}}, true)
	if bad.failed != 1 {
		t.Fatalf("503 call not counted as failed")
	}
}

// TestInlineCorpusReferences computes the reference of every corpus
// program and requires each to build, measure and keep the method's
// properties, so the inline-corpus workload has no failing call on
// working code.
func TestInlineCorpusReferences(t *testing.T) {
	cells := inlineCells(0)
	errs := make([]error, len(cells))
	par.Run(context.Background(), clients, len(cells), func(i int) error {
		ref := computeReference(context.Background(), cells[i], cells[i].Sim)
		errs[i] = errors.Join(ref.Err, ref.PropErr)
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s: %v", cells[i].key(), err)
		}
	}
}

func TestCheckLiveOuts(t *testing.T) {
	w, err := workloads.ByName("ks")
	if err != nil {
		t.Fatal(err)
	}
	b := budget.Experiments()
	art, err := exp.BuildArtifact(context.Background(), w, b)
	if err != nil {
		t.Fatal(err)
	}
	p, err := exp.BuildFromArtifact(context.Background(), w, partition.GREMIO{}, coco.DefaultOptions(), art, b)
	if err != nil {
		t.Fatal(err)
	}
	in := w.Ref()
	st, err := interp.Run(w.F, in.Args, in.Mem, b.MeasureSteps)
	if err != nil {
		t.Fatal(err)
	}
	in = w.Ref()
	mt, err := interp.RunMT(interp.MTConfig{
		Threads: p.Coco.Threads, NumQueues: p.Coco.NumQueues, QueueCap: p.QueueCap,
		Assign: p.Assign, Args: in.Args, Mem: in.Mem, MaxSteps: b.MeasureSteps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLiveOuts(st, mt); err != nil {
		t.Fatalf("untouched MT run rejected: %v", err)
	}
	if len(mt.LiveOuts) == 0 {
		t.Fatal("ks has no live-outs to doctor")
	}
	mt.LiveOuts[0]++
	if err := checkLiveOuts(st, mt); err == nil {
		t.Fatal("MT live-out differing from the single-threaded one accepted")
	}
	mt.LiveOuts[0]--
	mt.Mem[len(mt.Mem)-1]++
	if err := checkLiveOuts(st, mt); err == nil {
		t.Fatal("MT final memory differing from the single-threaded one accepted")
	}
}
