package cgr

import (
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/trace"
)

// PlanBench exposes a primed planner to the external layer benchmark,
// which builds its schedule through package scenario — an importer of
// this package, so reachable only from package cgr_test.
type PlanBench struct{ pl *Planner }

// NewPlanBench primes a fresh planner of the given policy over s, with
// buffer capacities from cfg.
func NewPlanBench(pol Policy, s *trace.Schedule, cfg routing.Config) *PlanBench {
	pl := newPlanner(pol)
	pl.prime(s, &routing.Network{Cfg: cfg})
	return &PlanBench{pl: pl}
}

// Plan runs the policy's route search for p held at from since now, as
// at packet creation, and commits nothing. It returns the chosen
// route's hop count, -1 when the destination is unreachable.
func (b *PlanBench) Plan(p *packet.Packet, from packet.NodeID, now float64) int {
	hops := b.pl.planBest(p, from, now, rankGenerated)
	if hops == nil {
		return -1
	}
	return len(hops)
}
