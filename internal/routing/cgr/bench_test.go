package cgr_test

import (
	"testing"

	"rapid/internal/exp"
	"rapid/internal/packet"
	"rapid/internal/routing/cgr"
	"rapid/internal/scenario"
)

// BenchmarkCGRPlan times the CGR planner's route search alone: a fixed
// set of routable (source, destination, creation instant) queries from
// the workload of the first cgr-policies scenario at DefaultScale (the
// 12×24+12-node constellation plan), planned against a freshly primed,
// uncommitted contact graph. "default" is classic single-path CGR,
// whose only allocation is the returned hop slice; "k4" adds the Yen
// four-alternate search with widest-within-slack selection.
func BenchmarkCGRPlan(b *testing.B) {
	scs, err := scenario.Expand("cgr-policies", exp.FamilyParams("cgr-policies", exp.DefaultScale()))
	if err != nil {
		b.Fatal(err)
	}
	rs := scs[0].Materialize()
	// The first 256 packets the classic planner can route: every
	// query then returns a path, so allocs/op counts exactly the
	// allocations of one successful search.
	probe := cgr.NewPlanBench(cgr.DefaultPolicy(), rs.Schedule, rs.Cfg)
	var queries []*packet.Packet
	for _, p := range rs.Workload {
		if len(queries) < 256 && probe.Plan(p, p.Src, p.Created) >= 0 {
			queries = append(queries, p)
		}
	}
	if len(queries) == 0 {
		b.Fatal("no benchmark query is routable")
	}
	for _, bc := range []struct {
		name string
		pol  cgr.Policy
	}{
		{"default", cgr.DefaultPolicy()},
		{"k4", cgr.Policy{KPaths: cgr.DefaultKPaths, DelaySlack: cgr.DefaultDelaySlack, Copies: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pb := cgr.NewPlanBench(bc.pol, rs.Schedule, rs.Cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := queries[i%len(queries)]
				pb.Plan(p, p.Src, p.Created)
			}
		})
	}
}
