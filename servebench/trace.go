package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/coco"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mtcg"
	"repro/internal/partition"
	"repro/internal/pdg"
	"repro/internal/queue"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// span is one timed call into a layer. Times are nanoseconds since the
// replay started; Parent is -1 for a request's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// The replay is serial, so it needs no locking.
type tracer struct {
	t0    time.Time
	spans []span
	req   int
	stack []int
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: t.req, Name: name, Start: t.now()})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	n := len(t.stack) - 1
	t.spans[t.stack[n]].End = t.now()
	t.stack = t.stack[:n]
}

// timeIt records f as one span.
func (t *tracer) timeIt(name string, f func()) {
	t.begin(name)
	f()
	t.end()
}

// replayCounts are the exact work counts of one replayed request.
type replayCounts struct {
	arcs, instrs, mtSteps, cycles int64
}

// replayed is the traced run's outcome.
type replayed struct {
	spans []span
	// timedReq marks the requests that replay a timed-phase call (the
	// warm-hits set-up replay is not one).
	timedReq []bool
	counts   []replayCounts
}

// replay sends the workload's calls one at a time through the layers'
// public functions — the path the server takes for them — and records
// every call as a span. Warm-hits first replays its set-up fill (cold),
// then its first round (warm, hits from the replay's own cache);
// cold-kernels replays one pass's cells; inline-corpus its first round.
func replay(wl *workload, tp *timed, cacheDir, spanFile string) (*replayed, error) {
	rp := &replayed{}
	tr := &tracer{t0: time.Now()}
	store, err := cache.New(cache.Options{Dir: cacheDir, MemEntries: wl.memEntries})
	if err != nil {
		return nil, err
	}
	var calls []call
	var timedCall []bool
	for _, phase := range wl.fill {
		for _, c := range phase {
			calls = append(calls, singleCall(c))
			timedCall = append(timedCall, false)
		}
	}
	nSetup := len(calls)
	for _, c := range tp.replay {
		calls = append(calls, c)
		timedCall = append(timedCall, true)
	}
	for i := range calls {
		if i == nSetup && nSetup > 0 {
			// The timed server reopened the filled directory.
			if store, err = cache.New(cache.Options{Dir: cacheDir, MemEntries: wl.memEntries}); err != nil {
				return nil, err
			}
		}
		tr.req = i
		var cnt replayCounts
		tr.begin("request")
		if err := replayCall(tr, store, &calls[i], &cnt); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: replay of call %d: %v\n", i, err)
		}
		tr.end()
		rp.counts = append(rp.counts, cnt)
	}
	rp.spans = tr.spans
	rp.timedReq = timedCall
	f, err := os.Create(spanFile)
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"workload": wl.name, "spans": rp.spans}); err != nil {
		f.Close()
		return nil, err
	}
	return rp, f.Close()
}

// replayCall replays one call: decode, then each request's warm or cold
// path, then (for batches) the batch encode.
func replayCall(tr *tracer, store *cache.Cache, c *call, cnt *replayCounts) error {
	if !c.Batch {
		var req serve.Request
		var err error
		tr.timeIt("serve.decode", func() { err = json.Unmarshal(c.Body, &req) })
		if err != nil {
			return err
		}
		_, err = replayRequest(tr, store, &req, cnt)
		return err
	}
	var br serve.BatchRequest
	var err error
	tr.timeIt("serve.decode", func() { err = json.Unmarshal(c.Body, &br) })
	if err != nil {
		return err
	}
	var out serve.BatchResponse
	for i := range br.Requests {
		body, err := replayRequest(tr, store, &br.Requests[i], cnt)
		if err != nil {
			return err
		}
		out.Responses = append(out.Responses, serve.BatchItem{Status: 200, Source: "warm", Body: body})
	}
	tr.timeIt("serve.encode", func() { _, err = json.Marshal(&out) })
	return err
}

// replayRequest resolves and keys one request, answers it from the
// replay's cache when it holds the key, and otherwise computes it layer
// by layer, encodes it and puts it.
func replayRequest(tr *tracer, store *cache.Cache, req *serve.Request, cnt *replayCounts) ([]byte, error) {
	var w *workloads.Workload
	var err error
	if req.Workload != "" {
		tr.timeIt("workloads.resolve", func() { w, err = workloads.ByName(req.Workload) })
	} else {
		var f *ir.Function
		tr.timeIt("ir.parse", func() { f, err = ir.Parse(req.IR) })
		if err == nil {
			tr.timeIt("workloads.resolve", func() { w = inlineWorkload(req, f) })
		}
	}
	if err != nil {
		return nil, err
	}
	var fp, key string
	tr.timeIt("workloads.fingerprint", func() { fp = w.Fingerprint() })
	tr.timeIt("cache.key", func() {
		h := cache.NewHasher(serve.SchemaVersion)
		h.Field("workload", fp)
		h.Field("partitioner", req.Partitioner)
		h.Bool("sim", req.Sim)
		key = h.Sum()
	})
	var body []byte
	var ok bool
	tr.timeIt("cache.get", func() { body, ok = store.Get(key) })
	if ok {
		return body, nil
	}
	resp, err := computeLayers(tr, w, req.Partitioner, req.Sim, cnt)
	if err != nil {
		return nil, err
	}
	resp.Fingerprint = fp
	tr.timeIt("serve.encode", func() { body, err = json.Marshal(resp) })
	if err != nil {
		return nil, err
	}
	tr.timeIt("cache.put", func() { err = store.Put(key, body) })
	return body, err
}

// inlineWorkload builds an inline request's workload as the server does.
func inlineWorkload(req *serve.Request, f *ir.Function) *workloads.Workload {
	objs := make([]ir.MemObject, len(req.Objects))
	for i, o := range req.Objects {
		objs[i] = ir.MemObject{Name: o.Name, Base: o.Base, Size: o.Size}
	}
	in := func() workloads.Input {
		return workloads.Input{Args: append([]int64(nil), req.Args...), Mem: append([]int64(nil), req.Mem...)}
	}
	return &workloads.Workload{Name: req.Name, Function: req.Name, Suite: "inline", F: f, Objects: objs, Train: in, Ref: in}
}

// computeLayers runs the pipeline the way exp builds and measures it,
// one public layer call per span.
func computeLayers(tr *tracer, w *workloads.Workload, partName string, runSim bool, cnt *replayCounts) (*serve.Response, error) {
	part, err := partitionerFor(partName)
	if err != nil {
		return nil, err
	}
	b := budget.Experiments()
	train := w.Train()
	var prof *interp.Result
	tr.timeIt("interp.profile", func() {
		prof, err = interp.RunCtx(context.Background(), w.F, train.Args, train.Mem, b.ProfileSteps)
	})
	if err != nil {
		return nil, err
	}
	var g *pdg.Graph
	tr.timeIt("pdg.build", func() { g = pdg.Build(w.F, w.Objects) })
	cnt.arcs += int64(g.NumArcs())
	var assign map[*ir.Instr]int
	tr.timeIt("partition.partition", func() { assign, err = part.Partition(w.F, g, prof.Profile, 2) })
	if err != nil {
		return nil, err
	}
	var naive, opt *mtcg.Program
	tr.timeIt("mtcg.generate", func() { naive, err = mtcg.Generate(mtcg.NaivePlan(w.F, g, assign, 2)) })
	if err != nil {
		return nil, err
	}
	tr.timeIt("queue.alloc", func() { queue.Allocate(naive) })
	var plan *mtcg.Plan
	tr.timeIt("coco.plan", func() { plan, err = coco.Plan(w.F, g, assign, 2, prof.Profile, coco.DefaultOptions()) })
	if err != nil {
		return nil, err
	}
	tr.timeIt("mtcg.generate", func() { opt, err = mtcg.Generate(plan) })
	if err != nil {
		return nil, err
	}
	tr.timeIt("queue.alloc", func() { queue.Allocate(opt) })
	for _, p := range []*mtcg.Program{naive, opt} {
		for _, f := range p.Threads {
			cnt.instrs += int64(f.NumInstrs())
		}
	}

	qcap := partition.QueueCapFor(part)
	resp := &serve.Response{Schema: serve.SchemaVersion, Workload: w.Name, Partitioner: part.Name(), Comm: &serve.Comm{}}
	stats := [2]interp.CommStats{}
	for i, p := range []*mtcg.Program{naive, opt} {
		in := w.Ref()
		var mt *interp.MTResult
		tr.timeIt("interp.mt", func() {
			mt, err = interp.RunMT(interp.MTConfig{
				Threads: p.Threads, NumQueues: p.NumQueues, QueueCap: qcap,
				Assign: assign, Args: in.Args, Mem: in.Mem, MaxSteps: b.MeasureSteps,
			})
		})
		if err != nil {
			return nil, err
		}
		stats[i] = mt.Stats
		cnt.mtSteps += mt.Steps
	}
	resp.Comm.Naive, resp.Comm.Coco = stats[0], stats[1]
	resp.Comm.NaivePct, resp.Comm.CocoPct = commPct(stats[0]), commPct(stats[1])
	if !runSim {
		return resp, nil
	}
	cfg := sim.DefaultConfig()
	mcfg := cfg
	if qcap > 0 {
		mcfg.QueueCap = qcap
	}
	cyc := [2]int64{}
	for i, p := range []*mtcg.Program{naive, opt} {
		in := w.Ref()
		var r *sim.Result
		tr.timeIt("sim.mt", func() { r, err = sim.Run(mcfg, p.Threads, in.Args, in.Mem, b.SimCycles) })
		if err != nil {
			return nil, err
		}
		cyc[i] = r.Cycles
	}
	in := w.Ref()
	var st *sim.Result
	tr.timeIt("sim.st", func() { st, err = sim.RunSingle(cfg, w.F, in.Args, in.Mem, b.SimCycles) })
	if err != nil {
		return nil, err
	}
	cnt.cycles += cyc[0] + cyc[1] + st.Cycles
	resp.Cycles = &serve.Cycles{SingleThreaded: st.Cycles, Naive: cyc[0], Coco: cyc[1]}
	if cyc[1] > 0 {
		resp.Cycles.Speedup = float64(st.Cycles) / float64(cyc[1])
	}
	return resp, nil
}

// layerMetrics reports the per-layer metrics: mean self time per replayed
// request of each layer, the exact work counts, and the server's own
// counts over the timed phase per call.
func layerMetrics(tp *timed, rp *replayed) map[string]metric {
	self := map[string]int64{}
	childTime := make([]int64, len(rp.spans))
	for _, s := range rp.spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	var rootSum int64
	var nTimed int
	for _, s := range rp.spans {
		self[s.Name] += s.End - s.Start - childTime[s.ID]
		if s.Parent < 0 && rp.timedReq[s.Req] {
			rootSum += s.End - s.Start
			nTimed++
		}
	}
	var total replayCounts
	for _, c := range rp.counts {
		total.arcs += c.arcs
		total.instrs += c.instrs
		total.mtSteps += c.mtSteps
		total.cycles += c.cycles
	}
	nReq := float64(len(rp.counts))
	per := func(name string, unit time.Duration, u string) metric {
		return metric{float64(self[name]) / float64(unit) / nReq, u}
	}
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	calls := float64(len(tp.lat))
	var latSum float64
	for _, l := range tp.lat {
		latSum += l
	}
	meanLat := latSum / calls
	replayMean := float64(rootSum) / 1e6 / float64(max(nTimed, 1))
	us, ms := time.Microsecond, time.Millisecond
	return map[string]metric{
		"serve.decode_us":          per("serve.decode", us, "us"),
		"serve.encode_us":          per("serve.encode", us, "us"),
		"workloads.resolve_us":     per("workloads.resolve", us, "us"),
		"workloads.fingerprint_us": per("workloads.fingerprint", us, "us"),
		"cache.get_us":             per("cache.get", us, "us"),
		"cache.put_us":             per("cache.put", us, "us"),
		"ir.parse_us":              per("ir.parse", us, "us"),
		"interp.profile_ms":        per("interp.profile", ms, "ms"),
		"pdg.build_ms":             per("pdg.build", ms, "ms"),
		"partition.partition_ms":   per("partition.partition", ms, "ms"),
		"mtcg.generate_ms":         per("mtcg.generate", ms, "ms"),
		"queue.alloc_us":           per("queue.alloc", us, "us"),
		"coco.plan_ms":             per("coco.plan", ms, "ms"),
		"interp.mt_ms":             per("interp.mt", ms, "ms"),
		"sim.mt_ms":                per("sim.mt", ms, "ms"),
		"sim.st_ms":                per("sim.st", ms, "ms"),
		"interp.mt_steps_per_req":  {float64(total.mtSteps) / nReq, "count"},
		"sim.cycles_per_req":       {float64(total.cycles) / nReq, "count"},
		"pdg.arcs_per_req":         {float64(total.arcs) / nReq, "count"},
		"mtcg.instrs_per_req":      {float64(total.instrs) / nReq, "count"},
		"interp.ns_per_step":       {ratio(self["interp.mt"], total.mtSteps), "ns"},
		"sim.ns_per_cycle":         {ratio(self["sim.mt"]+self["sim.st"], total.cycles), "ns"},
		"cache.hit_mem_per_req":    {float64(tp.stats.HitMem) / calls, "count"},
		"cache.hit_disk_per_req":   {float64(tp.stats.HitDisk) / calls, "count"},
		"cache.miss_per_req":       {float64(tp.stats.Miss) / calls, "count"},
		"cache.evict_per_req":      {float64(tp.stats.EvictMem+tp.stats.EvictDisk) / calls, "count"},
		"serve.compute_per_req":    {float64(tp.stats.Compute) / calls, "count"},
		"serve.merged_per_req":     {float64(tp.stats.Merged) / calls, "count"},
		"serve.queue_rejected":     {float64(tp.stats.Rejected), "count"},
		"runtime.gc_per_req":       {float64(tp.gcs) / calls, "count"},
		"trace.request_mean_ms":    {meanLat, "ms"},
		"trace.replay_mean_ms":     {replayMean, "ms"},
		"trace.unattributed_ms":    {meanLat - replayMean, "ms"},
	}
}
