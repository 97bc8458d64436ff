package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/randprog"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// cellSpec is one distinct request the benchmark sends: a workload (a
// named kernel or a generated inline program), a partitioner and whether
// the simulator runs.
type cellSpec struct {
	Kernel      string            // named kernel; "" for inline programs
	Inline      *randprog.Program // inline program; nil for named kernels
	Label       string            // inline programs' response name
	Partitioner string            // "gremio" or "dswp"
	Sim         bool
}

// key names the cell's server cache key in the benchmark's own terms.
func (c *cellSpec) key() string {
	name := c.Kernel
	if c.Inline != nil {
		name = c.Label
	}
	return fmt.Sprintf("%s/%s/sim=%t", name, c.Partitioner, c.Sim)
}

// pipelineKey names the reference pipeline the cell is checked against;
// the sim-on and sim-off cells of one workload and partitioner share it.
func (c *cellSpec) pipelineKey() string {
	name := c.Kernel
	if c.Inline != nil {
		name = c.Label
	}
	return name + "/" + c.Partitioner
}

func (c *cellSpec) request() serve.Request {
	r := serve.Request{Partitioner: c.Partitioner, Sim: c.Sim}
	if c.Inline == nil {
		r.Workload = c.Kernel
		return r
	}
	p := c.Inline
	r.IR = p.F.String()
	r.Name = c.Label
	r.Args = p.Args
	r.Mem = p.Mem
	for _, o := range p.Objects {
		r.Objects = append(r.Objects, serve.MemObject{Name: o.Name, Base: o.Base, Size: o.Size})
	}
	return r
}

// call is one HTTP call: a single /v1/schedule request or a /v1/batch of
// several, one cell per item.
type call struct {
	Batch bool
	Cells []*cellSpec
	Body  []byte
}

// workload is a built input set: its rounds (a round is the unit a run
// repeats, so every run attempts the same mix) and the set-up calls that
// precede timing.
type workload struct {
	name string
	// fill lists the cells a first server computes before the timed
	// server opens its cache directory, in phases: every cell of a phase
	// completes before the next phase starts.
	fill [][]*cellSpec
	// warmup is sent to the timed server before timing, untimed.
	warmup []call
	// round returns the calls of timed round r, drawn from the seed.
	round func(r int) []call
	// paired sends every call of a round from both clients at the same
	// moment, one call at a time; otherwise the clients share the round's
	// calls, each taking the next one when its previous call returns.
	paired bool
	// freshServer starts every round on a new server over an empty cache.
	freshServer bool
	// memEntries bounds the memory cache layer of the timed server (0 =
	// the gmtserve default).
	memEntries int
	// replayRounds is how many rounds the traced run replays.
	replayRounds int
	// exact returns the cells speedup_geomean and coco_comm_pct average
	// over: a fixed set, whatever the run's length.
	exact func() []*cellSpec
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding %T: %v", v, err))
	}
	return b
}

func singleCall(c *cellSpec) call {
	r := c.request()
	return call{Cells: []*cellSpec{c}, Body: mustJSON(&r)}
}

func batchCall(cells []*cellSpec) call {
	var b serve.BatchRequest
	for _, c := range cells {
		b.Requests = append(b.Requests, c.request())
	}
	return call{Batch: true, Cells: cells, Body: mustJSON(&b)}
}

var partitioners = []string{"gremio", "dswp"}

// kernelCells returns the named-kernel cells, partitioner-major (the
// order cmd/experiments runs the matrix in), for the given sim settings.
func kernelCells(sims []bool) []*cellSpec {
	var cells []*cellSpec
	for _, p := range partitioners {
		for _, w := range workloads.All() {
			for _, s := range sims {
				cells = append(cells, &cellSpec{Kernel: w.Name, Partitioner: p, Sim: s})
			}
		}
	}
	return cells
}

// byPartitioner splits cells into one phase per partitioner, GREMIO
// first.
func byPartitioner(cells []*cellSpec) [][]*cellSpec {
	phases := make([][]*cellSpec, len(partitioners))
	for _, c := range cells {
		for j, p := range partitioners {
			if c.Partitioner == p {
				phases[j] = append(phases[j], c)
			}
		}
	}
	return phases
}

// shuffled returns a copy of calls in the order drawn for round r of the
// given seed.
func shuffled(calls []call, seed int64, r int) []call {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
	out := append([]call(nil), calls...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// warmWeights is the skew of the warm-hits mix: how many times per round
// each kernel's four keys are requested, by the kernel's position in
// Figure 6(b). The multiset is fixed so that every seed runs the same
// mix; the seed orders it.
var warmWeights = []int{8, 4, 3, 2, 2, 1, 1, 1, 1, 1, 1}

// warmBatches lists, per partitioner, the kernel pairs of each round's
// batch calls; each batch asks for both kernels with sim on and off.
var warmBatches = [][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}

// memEntriesWarm holds fewer entries than warm-hits has keys, so a
// steady share of its hits comes from disk.
const memEntriesWarm = 16

func warmHits(seed int64) *workload {
	cells := kernelCells([]bool{false, true})
	index := map[string]*cellSpec{}
	for _, c := range cells {
		index[c.key()] = c
	}
	ks := workloads.All()
	cellOf := func(k int, p string, sim bool) *cellSpec {
		return index[(&cellSpec{Kernel: ks[k].Name, Partitioner: p, Sim: sim}).key()]
	}
	var base []call
	for k, n := range warmWeights {
		for _, p := range partitioners {
			for _, s := range []bool{false, true} {
				c := singleCall(cellOf(k, p, s))
				for j := 0; j < n; j++ {
					base = append(base, c)
				}
			}
		}
	}
	for _, p := range partitioners {
		for _, pair := range warmBatches {
			var batch []*cellSpec
			for _, k := range pair {
				batch = append(batch, cellOf(k, p, false), cellOf(k, p, true))
			}
			base = append(base, batchCall(batch))
		}
	}
	return &workload{
		name:         "warm-hits",
		fill:         byPartitioner(cells),
		warmup:       shuffled(base, seed, -1),
		round:        func(r int) []call { return shuffled(base, seed, r) },
		memEntries:   memEntriesWarm,
		replayRounds: 1,
		exact:        func() []*cellSpec { return cells },
	}
}

// coldWarmup is how many kernels, in Figure 6(b) order, cold-kernels
// warms up with, under each partitioner: enough to run every layer once
// before timing, few enough that set-up is not a whole pass, whose
// length the host's load moves.
const coldWarmup = 2

func coldKernels(seed int64) *workload {
	cells := kernelCells([]bool{true})
	n := len(workloads.All())
	var warmup []call
	for p := range partitioners {
		for k := 0; k < coldWarmup; k++ {
			warmup = append(warmup, singleCall(cells[p*n+k]))
		}
	}
	return &workload{
		name:   "cold-kernels",
		warmup: warmup,
		round: func(r int) []call {
			// Partitioner-major like cmd/experiments; the seed orders
			// the kernels within each partitioner.
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
			var calls []call
			for p := range partitioners {
				for _, k := range rng.Perm(n) {
					calls = append(calls, singleCall(cells[p*n+k]))
				}
			}
			return calls
		},
		paired:       true,
		freshServer:  true,
		replayRounds: 1,
		exact:        func() []*cellSpec { return cells },
	}
}

// Inline-corpus layout: the corpus is inlineGrids grids of one program
// per (shape, size) pair. The partitioner alternates over each grid and a
// quarter of the programs, rotating from grid to grid, also run the
// simulator.
var (
	inlineSizes = []int{40, 160, 320, 640}
	aliasPool   = []int{5, 20, 45, 70}
	liveOutPool = []int{1, 2, 3, 6}
	qpPool      = []int{10, 35, 60, 85}
)

// inlineGrids is how many grids the corpus holds. Every round sends the
// whole corpus, so every round is the same work: when a round was one
// grid drawn for the round, calls per second varied threefold from round
// to round within a run, and runs that reached different rounds measured
// different programs.
const inlineGrids = 4

// inlinePad is how many words of data, drawn for each round, follow a
// program's arrays in its memory image. The program never touches them,
// but the server decodes, copies and fingerprints the whole image, and
// they make every request's key new to the run.
const inlinePad = 2048

// memEntriesInline bounds the inline-corpus memory layer below the
// corpus size, so it evicts.
const memEntriesInline = 32

// inlineCorpusSeed roots the corpus. It is fixed and the run's seed only
// orders each round's calls: a program costs from a fraction of a
// millisecond to a few hundred, so programs drawn from the run's seed
// made runs on different seeds differ by a quarter in throughput and
// median latency, and by nearly half in tail latency.
const inlineCorpusSeed = 1

func inlineProgram(r, grid, shape, size int) *randprog.Program {
	pos := int64(shape*len(inlineSizes) + size)
	rng := rand.New(rand.NewSource(inlineCorpusSeed*1_000_003 + int64(grid)*64 + pos))
	ax := randprog.Axes{
		Size:          inlineSizes[size],
		Shape:         randprog.Shapes()[shape],
		AliasDensity:  aliasPool[rng.Intn(len(aliasPool))],
		LiveOuts:      liveOutPool[rng.Intn(len(liveOutPool))],
		QueuePressure: qpPool[rng.Intn(len(qpPool))],
	}
	p := randprog.Generate(rng, ax.Options())
	pad := rand.New(rand.NewSource(inlineCorpusSeed*1_000_003 + (int64(r)*64+int64(grid))*64 + pos + 1<<40))
	for i := 0; i < inlinePad; i++ {
		p.Mem = append(p.Mem, int64(pad.Intn(2001)-1000))
	}
	return p
}

// inlineCells returns the corpus as sent in round r (-1 = warm-up).
func inlineCells(r int) []*cellSpec {
	var cells []*cellSpec
	for g := 0; g < inlineGrids; g++ {
		for s := range randprog.Shapes() {
			for z := range inlineSizes {
				cells = append(cells, &cellSpec{
					Inline:      inlineProgram(r, g, s, z),
					Label:       fmt.Sprintf("rp-%d-%d-%d-%d", r, g, s, z),
					Partitioner: partitioners[(s+z)%2],
					Sim:         (s+z+g)%4 == 0,
				})
			}
		}
	}
	return cells
}

func inlineCorpus(seed int64) *workload {
	round := func(r int) []call {
		var calls []call
		for _, c := range inlineCells(r) {
			calls = append(calls, singleCall(c))
		}
		return shuffled(calls, seed, r)
	}
	return &workload{
		name:         "inline-corpus",
		warmup:       round(-1),
		round:        round,
		memEntries:   memEntriesInline,
		replayRounds: 1,
		exact:        func() []*cellSpec { return inlineCells(-1) },
	}
}

func workloadByName(name string, seed int64) (*workload, error) {
	switch name {
	case "warm-hits":
		return warmHits(seed), nil
	case "cold-kernels":
		return coldKernels(seed), nil
	case "inline-corpus":
		return inlineCorpus(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want warm-hits, cold-kernels or inline-corpus)", name)
}
