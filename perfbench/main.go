// Command perfbench is the repository's benchmark: it runs one named
// batch workload of the simulator for a seed, checks every scenario's
// summary, and prints the end-to-end metrics (untraced) or the
// per-layer metrics (traced) as one JSON line.
//
//	python3 perfbench/run.py --workload mega-probe --seed 0 --seconds 40 --trace 0
//
// run.py builds this package and runs it from the repository root; see
// README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setup_s is the median of at least minSetups set-up samples and of as
// many more as fit in minSetupNs of set-up work.
const (
	minSetups  = 5
	minSetupNs = 500e6
)

func main() {
	name := flag.String("workload", "", "workload: mega-probe, paper-sweep or cgr-lossy")
	seed := flag.Int("seed", 0, "scenario Run index the workload's grid starts at")
	secs := flag.Float64("seconds", 40, "time budget of the timed passes")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	out := flag.String("out", "", "directory the traced pass writes its spans to (empty: none)")
	printRef := flag.Bool("reference", false, "print the workload's seed fingerprints as reference.json entries and exit")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok || *seed < 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload mega-probe|paper-sweep|cgr-lossy, -seed >= 0 and -trace 0|1")
		os.Exit(2)
	}
	if *printRef {
		if err := printReference(w, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	chk, err := newChecker(w.name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printHost(w.name, *seed, *traced)

	var ms map[string]metric
	if *traced == 1 {
		ms, err = tracedPass(w, *seed, chk, *out)
	} else {
		ms, err = timedPasses(w, *seed, int64(*secs*1e9), chk)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, p := range chk.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", p)
	}
	res := result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: ms}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printHost prints the host record the numbers were taken on.
func printHost(name string, seed, traced int) {
	host := map[string]any{
		"workload":   name,
		"seed":       seed,
		"trace":      traced,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	b, _ := json.Marshal(host) // a map of strings and ints always marshals
	fmt.Println("host", string(b))
}

// cpuModel reads the CPU model name, or "unknown" where the kernel does
// not expose it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timedPasses samples set-up, then runs untraced passes — set-up, then
// the timed run — until another pass of the same length would overrun
// the budget, and at least two, so every seed's pass repeats. It
// reports the medians over passes, except for the peak heap, which is
// the largest any pass saw: collections sample the live heap only
// where they happen to run, so more passes find a truer peak.
func timedPasses(w workload, seed int, budgetNs int64, chk *checker) (map[string]metric, error) {
	setups, err := setupSamples(w, seed)
	if err != nil {
		return nil, err
	}
	var walls, rates, allocs, peaks []float64
	start := clock()
	for pass := 0; ; pass++ {
		passStart := clock()
		p, err := w.setup(seed, -1)
		if err != nil {
			return nil, err
		}
		o := w.run(p, false)
		chk.pass(fmt.Sprintf("pass %d", pass), o, nil)
		wall := seconds(o.wallNs)
		walls = append(walls, wall)
		rates = append(rates, float64(meetings(o.sums))/wall)
		allocs = append(allocs, float64(o.allocBytes)/(1<<20))
		peaks = append(peaks, float64(o.peakHeap)/(1<<20))
		fmt.Printf("pass %d: wall %.3f s, %d contacts, %.0f MB allocated, %.1f MB peak live heap\n",
			pass, wall, meetings(o.sums), allocs[pass], peaks[pass])
		now := clock()
		if pass >= 1 && now-start+(now-passStart) > budgetNs {
			break
		}
	}
	return map[string]metric{
		"wall_s":         {median(walls), "s"},
		"contacts_per_s": {median(rates), "1/s"},
		"setup_s":        {median(setups), "s"},
		"alloc_mb":       {median(allocs), "MB"},
		"peak_heap_mb":   {slices.Max(peaks), "MB"},
	}, nil
}

// setupSamples times at least minSetups set-ups, and as many more as
// fit in minSetupNs of set-up work, before any pass runs and each on a
// freshly collected heap: set-up takes milliseconds, so a few samples,
// or samples sharing the CPU with a collection of earlier garbage,
// would leave setup_s at the mercy of noise.
func setupSamples(w workload, seed int) ([]float64, error) {
	var samples []float64
	var total int64
	for len(samples) < minSetups || total < minSetupNs {
		runtime.GC()
		p, err := w.setup(seed, -1)
		if err != nil {
			return nil, err
		}
		samples = append(samples, seconds(p.setupNs()))
		total += p.setupNs()
	}
	fmt.Printf("set-up: %d samples, median %.5f s, quartiles %.5f–%.5f s\n", len(samples),
		median(samples), quantile(samples, 0.25), quantile(samples, 0.75))
	return samples, nil
}

// tracedPass runs the workload untraced, (on the parallel engine, also
// untraced on the serial engine,) then traced; checks the passes agree;
// replays the control and meet layers on the traced end state; and
// reports the per-layer metrics. The serial run goes before the traced
// one, whose network stays live for the replay.
func tracedPass(w workload, seed int, chk *checker, outDir string) (map[string]metric, error) {
	pu, err := w.setup(seed, -1)
	if err != nil {
		return nil, err
	}
	ou := w.run(pu, false)
	chk.pass("untraced", ou, nil)

	speedup := 1.0
	if w.runWorkers > 1 {
		var ps prepared
		if ps, err = w.setup(seed, 1); err != nil {
			return nil, err
		}
		serial := w.run(ps, false)
		chk.pass("serial", serial, nil)
		speedup = float64(serial.wallNs) / float64(ou.wallNs)
	}

	pt, err := w.setup(seed, -1)
	if err != nil {
		return nil, err
	}
	ot := w.run(pt, true)
	chk.pass("traced", ot, func(int) string {
		// The traced run must stay on the same engine path: the
		// parallel engine executes one extra event per streamed packet.
		if ou.events >= 0 && ot.events != ou.events {
			return fmt.Sprintf("traced run executed %d events, untraced %d", ot.events, ou.events)
		}
		return ""
	})

	var rp replayResult
	if w.replay != nil {
		for i, s := range pt.scs {
			if w.replay(s) {
				rp = replay(ot.traces[i], pt.runs[i], s)
				break
			}
		}
	}

	lt := totals(ot.traces)
	if outDir != "" {
		if err := saveSpans(filepath.Join(outDir, "spans-"+w.name+".tsv"), ot.traces); err != nil {
			return nil, err
		}
	}
	pool := float64(min(w.pool, len(pt.runs)))
	exchanges := float64(len(rp.exchangeNs))
	var exchangeNs float64
	for _, d := range rp.exchangeNs {
		exchangeNs += d
	}
	perExchangeAlloc, keptRatio := 0.0, 0.0
	if exchanges > 0 {
		perExchangeAlloc = float64(rp.allocBytes) / exchanges
	}
	if lt.accepts > 0 {
		keptRatio = float64(lt.kept) / float64(lt.accepts)
	}
	ms := map[string]metric{
		"scenario.expand_s":           {seconds(pu.expandNs), "s"},
		"scenario.materialize_s":      {seconds(pu.materializeNs), "s"},
		"exp.fanout_efficiency":       {seconds(lt.runNs) / (seconds(ot.wallNs) * pool), "ratio"},
		"routing.run_s":               {seconds(lt.runNs), "s"},
		"routing.contacts":            {float64(meetings(ot.sums)), "count"},
		"routing.self_s":              {seconds(lt.selfNs), "s"},
		"sim.events":                  {float64(ot.events), "count"},
		"sim.events_per_s":            {float64(ot.events) / seconds(ou.wallNs), "1/s"},
		"sim.parallel_speedup":        {speedup, "ratio"},
		"control.exchange_s":          {exchangeNs / 1e9, "s"},
		"control.exchanges":           {exchanges, "count"},
		"control.exchange_us_p50":     {quantile(rp.exchangeNs, 0.5) / 1e3, "us"},
		"control.exchange_us_p99":     {quantile(rp.exchangeNs, 0.99) / 1e3, "us"},
		"control.exchange_wire_bytes": {float64(rp.wireBytes), "B"},
		"control.exchange_alloc_b":    {perExchangeAlloc, "B"},
		"meet.expected_s":             {seconds(rp.expectedNs), "s"},
		"meet.expected_calls":         {float64(rp.expectedCalls), "count"},
		"meet.known_tables_mean":      {rp.knownTablesMean, "count"},
		"core.accept_kept_ratio":      {keptRatio, "ratio"},
		"bench.trace_overhead":        {float64(ot.wallNs)/float64(ou.wallNs) - 1, "ratio"},
	}
	for o := op(0); o < numOps; o++ {
		ms[opNames[o]+"_s"] = metric{seconds(lt.ns[o]), "s"}
		ms[opNames[o]+"_calls"] = metric{float64(lt.calls[o]), "count"}
	}
	fmt.Printf("untraced %.3f s, traced %.3f s, %d spans, replayed %d exchanges and %d meet estimates\n",
		seconds(ou.wallNs), seconds(ot.wallNs), lt.spans, len(rp.exchangeNs), rp.expectedCalls)
	return ms, nil
}

// saveSpans writes a traced pass's spans to path.
func saveSpans(path string, traces []*runTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, traces); err != nil {
		f.Close()
		return fmt.Errorf("perfbench: writing %s: %w", path, err)
	}
	return f.Close()
}

// printReference runs one untraced pass of seed and prints its summary
// fingerprints as a reference.json entry.
func printReference(w workload, seed int) error {
	p, err := w.setup(seed, -1)
	if err != nil {
		return err
	}
	o := w.run(p, false)
	fps := make([]string, len(o.sums))
	for i, s := range o.sums {
		if o.panics[i] != "" {
			return fmt.Errorf("perfbench: scenario %d panicked: %s", i, o.panics[i])
		}
		if v := invariant(s); v != "" {
			return fmt.Errorf("perfbench: scenario %d: %s", i, v)
		}
		fps[i] = fingerprint(s)
	}
	b, err := json.Marshal(map[string][]string{w.name: fps})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
