package routing

import (
	"runtime"

	"rapid/internal/packet"
	"rapid/internal/sim"
)

// This file holds the routing layer's shard events and the gate that
// lets the engine batch them (sim.Engine.SetWorkers). Every run
// schedules the same events whatever its worker count: the two hot
// kinds of a constellation run — point contact sessions and packet
// creations — are sim.ShardEvents keyed by their endpoint node IDs, and
// everything else (window opens/closes, churn toggles) is a plain
// event. With one worker the engine executes each event in place; with
// more it batches consecutive independent shard events, executes them
// across a worker pool and commits their globally ordered effects in
// exact pop order, with plain events as flush barriers — so a parallel
// run is byte-identical to a serial one.
//
// A session's mutable footprint is its two endpoint nodes: buffer
// store, control state (meeting estimator, ack table, replica
// metadata), and the router's per-node caches. That is exactly the
// engine's conflict rule, provided the routers themselves stay inside
// it — which is what the SessionConfined marker asserts. Sessions also
// write delivery-record fields of packets destined to one of their
// endpoints; any two sessions touching the same record share that
// endpoint, so the conflict rule orders those too. Record *creation*
// (Collector.Generated) and counter folds happen at commit.

// SessionConfined marks a Router whose session-driven work — Generate,
// Inventory, DirectQueue, PlanReplication, Accept, gossip, observer
// callbacks — reads and writes only its own node's state, the peer
// node it is handed, and immutable run-wide state (config, schedule
// horizon). Such routers may run inside the parallel engine's
// conflict-free waves. Routers that touch shared mutable state (a
// per-run planner, an engine random stream) must not implement it;
// runs including any unconfined router fall back to the serial engine.
type SessionConfined interface {
	SessionConfined()
}

// resolveWorkers maps the Config.Workers knob to a worker count:
// 0 or 1 select the serial engine, n > 1 exactly n workers, negative
// one worker per available CPU.
func resolveWorkers(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// parallelEligible decides whether a run may use the parallel engine.
// Every exclusion is a correctness gate, not a heuristic: hooks demand
// per-event callbacks, the global control channel is shared mutable
// state touched inside sessions, Bernoulli loss consumes a shared
// transfer counter inside sessions, and an unconfined router may reach
// shared state from a wave.
func parallelEligible(sc Scenario, net *Network, ids []packet.NodeID) bool {
	if sc.Hooks != nil || sc.Cfg.Mode == ControlGlobal {
		return false
	}
	if net.disrupt != nil && net.disrupt.HasLoss() {
		return false
	}
	for _, id := range ids {
		if _, ok := net.Nodes[id].Router.(SessionConfined); !ok {
			return false
		}
	}
	return true
}

// sessionEvent is a point contact session as a shard event: the session
// body runs in a wave (it touches only the two endpoints), the
// collector fold and opportunity hook run at commit. Every point
// contact of a run is one, whatever the worker count.
type sessionEvent struct {
	net   *Network
	a, b  *Node
	bytes int64
	at    float64
	s     *Session
}

func (ev *sessionEvent) Execute(e *sim.Engine) {
	ev.ExecuteShard(e)
	ev.CommitShard(e)
}

func (ev *sessionEvent) ShardKeys() (int64, int64) {
	return int64(ev.a.ID), int64(ev.b.ID)
}

func (ev *sessionEvent) ExecuteShard(e *sim.Engine) {
	ev.s = beginSession(ev.net, ev.a, ev.b, ev.bytes, ev.at)
	if ev.s != nil {
		ev.s.run()
	}
}

func (ev *sessionEvent) CommitShard(e *sim.Engine) {
	if ev.s != nil {
		ev.s.finish()
		ev.s = nil
	}
}

// generateEvent is a packet creation as a shard event: the delivery
// record is registered (and the OnGenerated hook fired) at collection
// time — on the engine goroutine, at the event's exact pop position, so
// a session later in the same batch that delivers the packet finds its
// record — and the router stores the packet in a wave (source-node
// state only). Registering before earlier batch-mates' waves run is
// invisible to them: no node holds the packet until this event's own
// wave, so nothing can deliver or query it, and an extra undelivered
// record reads like no record. A hooked run never batches, so the hook
// fires in exact creation order.
type generateEvent struct {
	net *Network
	p   *packet.Packet
}

func (ev *generateEvent) Execute(e *sim.Engine) {
	ev.OnCollect(e)
	ev.ExecuteShard(e)
	ev.CommitShard(e)
}

func (ev *generateEvent) ShardKeys() (int64, int64) {
	return int64(ev.p.Src), int64(ev.p.Src)
}

func (ev *generateEvent) OnCollect(e *sim.Engine) {
	ev.net.Collector.Generated(ev.p)
	if h := ev.net.hooks; h != nil && h.OnGenerated != nil {
		h.OnGenerated(ev.p, ev.p.Created)
	}
}

func (ev *generateEvent) ExecuteShard(e *sim.Engine) {
	ev.net.Node(ev.p.Src).Router.Generate(ev.p, ev.p.Created)
}

func (ev *generateEvent) CommitShard(e *sim.Engine) {}
