package scenario_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rapid/internal/routing"
	"rapid/internal/scenario"
)

// runFingerprint reduces a run to a string capturing everything figure
// generation can observe: the full summary and every per-packet record
// (delivery bit, bit-exact delivery time, hop count) in generation
// order. Two runs with equal fingerprints produce byte-identical
// figures.
func runFingerprint(s scenario.Scenario) string {
	col, horizon := s.Execute()
	var b strings.Builder
	fmt.Fprintf(&b, "summary %+v\n", col.Summarize(horizon))
	for _, r := range col.Records() {
		fmt.Fprintf(&b, "pkt %d %v %x %d\n",
			r.P.ID, r.Delivered, math.Float64bits(r.DeliveredAt), r.Hops)
	}
	return b.String()
}

// TestParallelWorkersEquivalence pins the parallel engine's defining
// property across every registered family at tiny scale: the same
// scenario run at Workers ∈ {1, 2, 8} is byte-identical — identical
// summaries and identical per-packet records — whether the run actually
// parallelizes (RAPID/epidemic point contacts, churned runs) or falls
// back to one worker (CGR's shared planner, Bernoulli loss,
// windowed contacts between barriers). Disruption-enabled families
// (lossy-constellation, churn-powerlaw) are part of the registry and
// therefore of this sweep.
func TestParallelWorkersEquivalence(t *testing.T) {
	p := metamorphicParams()
	p.Tag = "parallel-equiv"
	p.Protocols = []scenario.Proto{scenario.ProtoRapid, scenario.ProtoEpidemic}
	for _, fam := range scenario.Families() {
		scs, err := scenario.Expand(fam.Name, p)
		if err != nil {
			t.Fatalf("%s: %v", fam.Name, err)
		}
		if len(scs) == 0 {
			t.Errorf("%s: expanded to no scenarios", fam.Name)
			continue
		}
		// The registry's grids repeat structure across points; three
		// scenarios per family keep the sweep inside the test budget
		// while still covering each family's schedule and workload kind.
		if len(scs) > 3 {
			scs = scs[:3]
		}
		for _, s := range scs {
			s := s
			t.Run(fmt.Sprintf("%s/%s", fam.Name, s.Protocol), func(t *testing.T) {
				t.Parallel()
				serial := s
				serial.Config.Workers = 1
				want := runFingerprint(serial)
				for _, workers := range []int{2, 8} {
					par := s
					par.Config.Workers = workers
					if got := runFingerprint(par); got != want {
						t.Fatalf("workers=%d diverged from serial:\n%s",
							workers, firstDiff(want, got))
					}
				}
			})
		}
	}
}

// firstDiff renders the first differing fingerprint line for a readable
// failure.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  serial:   %s\n  parallel: %s", i, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: serial %d lines, parallel %d", len(w), len(g))
}

// TestWorkersOverride pins the Overrides plumbing: a Workers override
// lands in the materialized config, and the -run-workers process
// default applies exactly when nothing else pinned a count.
func TestWorkersOverride(t *testing.T) {
	p := metamorphicParams()
	scs, err := scenario.Expand("synth-exponential", p)
	if err != nil {
		t.Fatal(err)
	}
	s := scs[0]
	if rs := s.Materialize(); rs.Cfg.Workers != 0 {
		t.Fatalf("default Workers = %d, want 0", rs.Cfg.Workers)
	}
	s.Config.Workers = 4
	if rs := s.Materialize(); rs.Cfg.Workers != 4 {
		t.Fatalf("override Workers = %d, want 4", rs.Cfg.Workers)
	}
	scenario.SetDefaultRunWorkers(-1)
	defer scenario.SetDefaultRunWorkers(0)
	if rs := s.Materialize(); rs.Cfg.Workers != 4 {
		t.Fatalf("override beats default: Workers = %d, want 4", rs.Cfg.Workers)
	}
	s.Config.Workers = 0
	if rs := s.Materialize(); rs.Cfg.Workers != -1 {
		t.Fatalf("process default Workers = %d, want -1", rs.Cfg.Workers)
	}
}

// TestEngineWorkersReportsArmedPath pins Collector.EngineWorkers: it
// records the worker count Run actually armed, so the engine path a run
// took stays observable even though every path executes the same events.
// A session-confined RAPID constellation run parallelizes; a CGR run
// (shared per-run planner) and a hooked run keep one worker.
func TestEngineWorkersReportsArmedPath(t *testing.T) {
	p := metamorphicParams()
	p.Protocols = []scenario.Proto{scenario.ProtoRapid, scenario.ProtoCGR}
	scs, err := scenario.Expand("cgr-constellation", p)
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[scenario.Proto]scenario.Scenario{}
	for _, s := range scs {
		s.Config.Workers = 2
		if _, ok := byProto[s.Protocol]; !ok {
			byProto[s.Protocol] = s
		}
	}
	rapid, ok := byProto[scenario.ProtoRapid]
	if !ok {
		t.Fatal("no RAPID scenario expanded")
	}
	cgr, ok := byProto[scenario.ProtoCGR]
	if !ok {
		t.Fatal("no CGR scenario expanded")
	}
	if col, _ := rapid.Execute(); col.EngineWorkers != 2 {
		t.Errorf("RAPID at Workers=2: EngineWorkers = %d, want 2", col.EngineWorkers)
	}
	if col, _ := cgr.Execute(); col.EngineWorkers != 1 {
		t.Errorf("CGR at Workers=2: EngineWorkers = %d, want 1", col.EngineWorkers)
	}
	hooked := rapid.Materialize()
	hooked.Hooks = &routing.Hooks{}
	if col := routing.Run(hooked); col.EngineWorkers != 1 {
		t.Errorf("hooked RAPID at Workers=2: EngineWorkers = %d, want 1", col.EngineWorkers)
	}
	rapid.Config.Workers = 1
	if col, _ := rapid.Execute(); col.EngineWorkers != 1 {
		t.Errorf("RAPID at Workers=1: EngineWorkers = %d, want 1", col.EngineWorkers)
	}
}
