package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rapid/internal/exp"
	"rapid/internal/metrics"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/scenario"
)

// workload is one named batch job of the benchmark: a scenario family
// grid, how its scenarios are fanned out, and which one the traced pass
// replays the control and meet layers on.
type workload struct {
	name   string
	family string
	params scenario.Params
	// runWorkers pins Config.Workers on every scenario: the intra-run
	// event-engine worker count (0 keeps the serial engine).
	runWorkers int
	// pool is the number of scenarios run at once. viaExp sends the
	// untraced pass through a fresh exp.Engine of that size; otherwise
	// the benchmark's own claim-next pool runs them.
	pool   int
	viaExp bool
	// replay picks the scenario whose end state the traced pass replays
	// control.Exchange and meet.Expected on (nil: no replay — the
	// workload's routers run no control channel).
	replay func(s scenario.Scenario) bool
}

// workloads returns the benchmark's workloads for a host with nproc
// CPUs, in BENCHMARK.json order.
func workloads(nproc int) []workload {
	return []workload{
		{
			// The ROADMAP mega probe: many nodes, few packets, so the
			// per-contact control and meet layers dominate; the only
			// workload on the intra-run parallel engine.
			name:   "mega-probe",
			family: "mega-constellation",
			params: scenario.Params{
				Tag: "perfbench", Runs: 1, Loads: []float64{1},
				Planes: 20, SatsPerPlane: 25, Ground: 12,
				OrbitPeriod: 5400, Duration: 5400,
			},
			runWorkers: nproc,
			pool:       1,
			replay:     func(scenario.Scenario) bool { return true },
		},
		{
			// The paper's Figs. 16–18 grid at Table 4 settings: few
			// nodes, deep buffers, so utility ranking and eviction
			// dominate; fanned out through the exp engine.
			name:   "paper-sweep",
			family: "synth-powerlaw",
			params: scenario.Params{
				Tag: "perfbench", Runs: 2, Loads: []float64{10, 40},
				Nodes: 20, Duration: 900,
			},
			pool:   nproc,
			viaExp: true,
			replay: func(s scenario.Scenario) bool {
				return s.Protocol == scenario.ProtoRapid && s.Workload.Load == 40
			},
		},
		{
			// The four CGR policy arms over the lossy DefaultScale
			// constellation: the contact-graph planner dominates, no
			// control channel runs, and loss forces the serial engine
			// inside every run. Four runs per grid point, two at a time:
			// the loss and contact-failure draws swing the k-path
			// planner's work by a fifth from one Run to the next, and
			// averaging four draws per seed, in passes short enough to
			// repeat, keeps that swing out of the seed-to-seed spread.
			name:   "cgr-lossy",
			family: "cgr-policies",
			params: scenario.Params{
				Tag: "perfbench", Runs: 4, Loads: []float64{2},
				Planes: 12, SatsPerPlane: 24, Ground: 12,
				OrbitPeriod: 900, Duration: 900,
				LossGrid: []float64{0, 0.15},
				Protocols: []scenario.Proto{
					scenario.ProtoCGR, scenario.ProtoCGRK,
					scenario.ProtoCGRMulti, scenario.ProtoCGRAdmit,
				},
			},
			pool: nproc,
		},
	}
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads(runtime.NumCPU()) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// prepared is one pass's set-up: the seeded scenario grid and its
// materialized runs.
type prepared struct {
	scs  []scenario.Scenario
	runs []routing.Scenario
	// expandNs and materializeNs time scenario.Expand and the
	// Materialize calls.
	expandNs, materializeNs int64
}

// setupNs is the pass's total set-up time.
func (p prepared) setupNs() int64 { return p.expandNs + p.materializeNs }

// setup expands the workload's grid for seed — the seed is the
// scenario Run index, so runs seed·Runs … seed·Runs+Runs-1 — and
// materializes every scenario. runWorkers overrides the workload's
// intra-run worker pin when non-negative.
func (w workload) setup(seed, runWorkers int) (prepared, error) {
	if runWorkers < 0 {
		runWorkers = w.runWorkers
	}
	t0 := clock()
	scs, err := scenario.Expand(w.family, w.params)
	if err != nil {
		return prepared{}, err
	}
	for i := range scs {
		scs[i].Run += seed * w.params.Runs
		scs[i].Config.Workers = runWorkers
	}
	t1 := clock()
	runs := make([]routing.Scenario, len(scs))
	for i, s := range scs {
		runs[i] = s.Materialize()
	}
	t2 := clock()
	return prepared{scs: scs, runs: runs, expandNs: t1 - t0, materializeNs: t2 - t1}, nil
}

// horizon is the run horizon a summary is reduced at.
func horizon(rs routing.Scenario) float64 {
	if rs.Schedule != nil {
		return rs.Schedule.Duration
	}
	return rs.Plan.Duration
}

// outcome is what one pass over a prepared grid produced.
type outcome struct {
	sums []metrics.Summary
	// panics holds the panic message of each scenario that panicked
	// ("" for the others).
	panics []string
	// events is Σ EventsExecuted, or -1 when the exp engine hides the
	// collectors.
	events int64
	wallNs int64
	// allocBytes and peakHeap are the heap bytes allocated during the
	// pass and the peak live heap seen at its garbage collections.
	allocBytes uint64
	peakHeap   uint64
	// traces holds the traced pass's per-scenario span buffers.
	traces []*runTrace
}

// runOne runs one materialized scenario, converting a panic into a
// failure message.
func runOne(rs routing.Scenario) (sum metrics.Summary, events uint64, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	col := routing.Run(rs)
	return col.Summarize(horizon(rs)), col.EventsExecuted, ""
}

// run executes one pass over p. Untraced, it runs the workload's own
// path (the exp engine where viaExp is set). Traced, every scenario
// runs with span-recording routers on a claim-next pool of the same
// width as the exp engine's.
func (w workload) run(p prepared, traced bool) outcome {
	n := len(p.runs)
	out := outcome{sums: make([]metrics.Summary, n), panics: make([]string, n)}
	if traced {
		out.traces = make([]*runTrace, n)
		for i := range p.runs {
			out.traces[i] = newRunTrace(i)
			p.runs[i].Factory = out.traces[i].wrap(p.runs[i].Factory)
		}
	}
	events := make([]uint64, n)
	runtime.GC()
	watch := watchHeap()
	alloc0 := allocatedBytes()
	start := clock()
	if w.viaExp && !traced {
		out.sums = exp.NewEngine(w.pool, 0).Summaries(p.scs)
	} else {
		fanOut(n, w.pool, func(i int) {
			var rt *runTrace
			if traced {
				rt = out.traces[i]
				rt.start = clock()
			}
			out.sums[i], events[i], out.panics[i] = runOne(p.runs[i])
			if traced {
				rt.end = clock()
				return
			}
			// Release the run: its factory holds the router state (a CGR
			// planner), which must become garbage once the run ends, as
			// it does inside exp.Engine, or the live heap would count
			// every finished run.
			p.runs[i] = routing.Scenario{}
		})
	}
	out.wallNs = clock() - start
	out.allocBytes = allocatedBytes() - alloc0
	out.peakHeap = watch.stop()
	out.events = -1
	if !w.viaExp || traced {
		out.events = 0
		for _, e := range events {
			out.events += int64(e)
		}
	}
	return out
}

// fanOut calls f(0..n-1) on at most pool goroutines, each claiming the
// next unclaimed index — the claim order of exp.Engine's pool.
func fanOut(n, pool int, f func(i int)) {
	if pool <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < min(pool, n); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// meetings is Σ Summary.Meetings: the pass's contact count, identical
// on every engine path.
func meetings(sums []metrics.Summary) int64 {
	var m int64
	for _, s := range sums {
		m += int64(s.Meetings)
	}
	return m
}

// destinations is the workload endpoint set of a scenario: the node
// IDs 0..NodeCount-1 its Poisson traffic runs between.
func destinations(s scenario.Scenario) []packet.NodeID {
	ids := make([]packet.NodeID, s.Workload.NodeCount)
	for i := range ids {
		ids[i] = packet.NodeID(i)
	}
	return ids
}
