package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/budget"
	"repro/internal/coco"
	"repro/internal/exp"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// reference is one (workload, partitioner) pipeline computed apart from
// serving: a freshly resolved workload through exp.BuildArtifact and
// exp.BuildFromArtifact, measured with MeasureComm, MeasureCycles and
// exp.SingleThreadedCycles — no engine memo, cache or server involved.
type reference struct {
	Workload    string
	Fingerprint string
	Partitioner string
	Naive, Coco interp.CommStats
	// Cycles are filled only when some cell of the pipeline runs the
	// simulator.
	HasCycles                   bool
	ST, NaiveCycles, CocoCycles int64
	// Err is set when the reference itself could not be computed; the
	// benchmark then cannot vouch for any response of the pipeline.
	Err error
	// PropErr is set when a generated program breaks a property the
	// method must have (its MT run disagrees with the single-threaded
	// run); every response built from the pipeline then fails.
	PropErr error
}

func commPct(c interp.CommStats) float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(c.Comm()) / float64(t)
}

// freshWorkload resolves a cell's workload anew, the way a client that
// never met the server would: named kernels by name, inline programs by
// parsing the IR text the server was sent.
func freshWorkload(c *cellSpec) (*workloads.Workload, error) {
	if c.Inline == nil {
		return workloads.ByName(c.Kernel)
	}
	req := c.request()
	f, err := ir.Parse(req.IR)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", c.Label, err)
	}
	in := func() workloads.Input {
		return workloads.Input{Args: slices.Clone(req.Args), Mem: slices.Clone(req.Mem)}
	}
	return &workloads.Workload{
		Name: c.Label, Function: c.Label, Suite: "inline", F: f,
		Objects: slices.Clone(c.Inline.Objects), Train: in, Ref: in,
	}, nil
}

func partitionerFor(name string) (partition.Partitioner, error) {
	switch name {
	case "gremio":
		return partition.GREMIO{}, nil
	case "dswp":
		return partition.DSWP{}, nil
	}
	return nil, fmt.Errorf("unknown partitioner %q", name)
}

// computeReference builds and measures one pipeline. withCycles adds the
// simulator measurements.
func computeReference(ctx context.Context, c *cellSpec, withCycles bool) *reference {
	ref := &reference{}
	if err := fillReference(ctx, ref, c, withCycles); err != nil {
		ref.Err = err
	}
	return ref
}

func fillReference(ctx context.Context, ref *reference, c *cellSpec, withCycles bool) error {
	w, err := freshWorkload(c)
	if err != nil {
		return err
	}
	part, err := partitionerFor(c.Partitioner)
	if err != nil {
		return err
	}
	b := budget.Experiments()
	ref.Workload, ref.Fingerprint, ref.Partitioner = w.Name, w.Fingerprint(), part.Name()
	art, err := exp.BuildArtifact(ctx, w, b)
	if err != nil {
		return err
	}
	p, err := exp.BuildFromArtifact(ctx, w, part, coco.DefaultOptions(), art, b)
	if err != nil {
		return err
	}
	if ref.Naive, err = p.MeasureComm(p.Naive); err != nil {
		return err
	}
	if ref.Coco, err = p.MeasureComm(p.Coco); err != nil {
		return err
	}
	if withCycles {
		cfg := sim.DefaultConfig()
		if ref.NaiveCycles, err = p.MeasureCycles(p.Machine(cfg), p.Naive); err != nil {
			return err
		}
		if ref.CocoCycles, err = p.MeasureCycles(p.Machine(cfg), p.Coco); err != nil {
			return err
		}
		if ref.ST, err = exp.SingleThreadedCycles(cfg, w); err != nil {
			return err
		}
		ref.HasCycles = true
	}
	ref.PropErr = checkPrograms(w, p, b, ref)
	return nil
}

// checkPrograms runs both generated programs with interp.RunMT on the
// reference input and the original function with interp.Run, and
// requires equal live-outs and final memory. It also requires the MT
// runs' counts to equal the MeasureComm figures.
func checkPrograms(w *workloads.Workload, p *exp.Pipeline, b budget.Budget, ref *reference) error {
	in := w.Ref()
	st, err := interp.Run(w.F, in.Args, in.Mem, b.MeasureSteps)
	if err != nil {
		return fmt.Errorf("single-threaded run: %w", err)
	}
	for _, prog := range []struct {
		name string
		p    *mtcg.Program
		want interp.CommStats
	}{{"naive", p.Naive, ref.Naive}, {"coco", p.Coco, ref.Coco}} {
		in := w.Ref()
		mt, err := interp.RunMT(interp.MTConfig{
			Threads: prog.p.Threads, NumQueues: prog.p.NumQueues, QueueCap: p.QueueCap,
			Assign: p.Assign, Args: in.Args, Mem: in.Mem, MaxSteps: b.MeasureSteps,
		})
		if err != nil {
			return fmt.Errorf("%s MT run: %w", prog.name, err)
		}
		if err := checkLiveOuts(st, mt); err != nil {
			return fmt.Errorf("%s program: %w", prog.name, err)
		}
		if mt.Stats != prog.want {
			return fmt.Errorf("%s program: MT run counts %+v, MeasureComm %+v", prog.name, mt.Stats, prog.want)
		}
	}
	return nil
}

// checkLiveOuts is property (b)'s execution half: a generated program
// must compute what the original function computes.
func checkLiveOuts(st *interp.Result, mt *interp.MTResult) error {
	if !slices.Equal(st.LiveOuts, mt.LiveOuts) {
		return fmt.Errorf("MT live-outs %v differ from single-threaded %v", mt.LiveOuts, st.LiveOuts)
	}
	if !slices.Equal(st.Mem, mt.Mem) {
		return fmt.Errorf("MT final memory differs from single-threaded")
	}
	return nil
}

// checkResponse checks one 200 body against its cell's reference: (a)
// equality with the reference and (b) the properties the method must
// have. It returns every failed check, each prefixed by its name.
func checkResponse(body []byte, c *cellSpec, ref *reference) []string {
	var bad []string
	fail := func(name, format string, args ...any) {
		bad = append(bad, name+": "+fmt.Sprintf(format, args...))
	}
	if ref.Err != nil {
		fail("reference", "%v", ref.Err)
		return bad
	}
	if ref.PropErr != nil {
		fail("b.mt-equals-st", "%v", ref.PropErr)
	}
	var r serve.Response
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		fail("decode", "%v", err)
		return bad
	}
	if r.Schema != serve.SchemaVersion {
		fail("a.schema", "schema %d, want %d", r.Schema, serve.SchemaVersion)
	}
	if r.Workload != ref.Workload || r.Fingerprint != ref.Fingerprint {
		fail("a.workload", "workload %s/%s, want %s/%s", r.Workload, r.Fingerprint, ref.Workload, ref.Fingerprint)
	}
	if r.Partitioner != ref.Partitioner {
		fail("a.partitioner", "partitioner %q, want %q", r.Partitioner, ref.Partitioner)
	}
	if r.Comm == nil {
		fail("a.comm", "no communication section")
		return bad
	}
	if r.Comm.Fallback != "" {
		fail("a.fallback", "comm fallback %q on a cell whose reference has none", r.Comm.Fallback)
	}
	if r.Comm.Naive != ref.Naive || r.Comm.Coco != ref.Coco {
		fail("a.comm-counts", "naive %+v coco %+v, want naive %+v coco %+v", r.Comm.Naive, r.Comm.Coco, ref.Naive, ref.Coco)
	}
	if r.Comm.NaivePct != commPct(ref.Naive) || r.Comm.CocoPct != commPct(ref.Coco) {
		fail("a.comm-pct", "pct %v/%v, want %v/%v", r.Comm.NaivePct, r.Comm.CocoPct, commPct(ref.Naive), commPct(ref.Coco))
	}
	for _, s := range []struct {
		name string
		st   interp.CommStats
	}{{"naive", r.Comm.Naive}, {"coco", r.Comm.Coco}} {
		if s.st.Produce != s.st.Consume || s.st.ProduceSync != s.st.ConsumeSync {
			fail("b.produce-consume", "%s produce %d/%d sync vs consume %d/%d sync",
				s.name, s.st.Produce, s.st.ProduceSync, s.st.Consume, s.st.ConsumeSync)
		}
	}
	if !c.Sim {
		if r.Cycles != nil {
			fail("a.cycles", "cycles reported on a sim-off cell")
		}
		return bad
	}
	if r.Cycles == nil {
		fail("a.cycles", "no cycles section on a sim-on cell")
		return bad
	}
	y := r.Cycles
	if y.Fallback != "" {
		fail("a.fallback", "cycles fallback %q on a cell whose reference has none", y.Fallback)
	}
	if y.SingleThreaded != ref.ST || y.Naive != ref.NaiveCycles || y.Coco != ref.CocoCycles {
		fail("a.cycle-counts", "cycles st=%d naive=%d coco=%d, want %d/%d/%d",
			y.SingleThreaded, y.Naive, y.Coco, ref.ST, ref.NaiveCycles, ref.CocoCycles)
	}
	if y.Coco <= 0 || y.Speedup != float64(y.SingleThreaded)/float64(y.Coco) {
		fail("b.speedup", "speedup %v is not %d/%d", y.Speedup, y.SingleThreaded, y.Coco)
	}
	return bad
}

// checkSameBytes is check (c): every path that served a key — cold,
// merged, memory, disk, batch item — must have served the same bytes.
func checkSameBytes(bodies [][]byte) error {
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			return fmt.Errorf("c.same-bytes: one key served %d different bodies:\n%s\n%s", countDistinct(bodies), bodies[0], bodies[i])
		}
	}
	return nil
}

func countDistinct(bodies [][]byte) int {
	seen := map[string]bool{}
	for _, b := range bodies {
		seen[string(b)] = true
	}
	return len(seen)
}
