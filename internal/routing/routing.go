// Package routing is the DTN runtime: nodes with buffers and control
// state, the contact session that moves bytes between two nodes during
// a transfer opportunity, the Router interface that protocols implement
// (RAPID in internal/core; baselines under internal/routing/...), and
// the scenario driver that replays a meeting schedule against a
// workload.
//
// Transfer opportunities come in two forms. Point meetings execute an
// instantaneous Session (session.go). Duration-aware contacts open at
// their start event, budget RateBps·Duration bytes, and stream packets
// across the window — cut off at window close, with overlapping windows
// sharing each node's radio fairly (window.go).
//
// The runtime enforces the feasibility constraints of §3.1: the total
// bytes moved during a meeting (control plus data, both directions)
// never exceed the transfer opportunity, and buffered bytes never
// exceed node storage.
package routing

import (
	"fmt"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/disrupt"
	"rapid/internal/metrics"
	"rapid/internal/packet"
	"rapid/internal/sim"
	"rapid/internal/trace"
)

// ControlMode selects how metadata propagates.
type ControlMode int

const (
	// ControlInBand is the default: metadata rides contacts and costs
	// bandwidth (§4.2).
	ControlInBand ControlMode = iota
	// ControlGlobal is the instant zero-cost global channel
	// (§6.2.3, Figs. 10–13).
	ControlGlobal
	// ControlNone disables the control plane entirely (pure Random).
	ControlNone
)

// String implements fmt.Stringer.
func (m ControlMode) String() string {
	switch m {
	case ControlInBand:
		return "in-band"
	case ControlGlobal:
		return "global"
	case ControlNone:
		return "none"
	default:
		return fmt.Sprintf("ControlMode(%d)", int(m))
	}
}

// Config carries runtime parameters shared by all protocols.
type Config struct {
	// BufferBytes is per-node storage for in-transit data
	// (<= 0: unlimited — the deployment's 40 GB effectively was).
	BufferBytes int64
	// BufferBytesFor, when non-nil, assigns per-node storage and
	// overrides BufferBytes (heterogeneous-buffer scenarios; <= 0 is
	// unlimited for that node).
	BufferBytesFor func(packet.NodeID) int64
	// Mode selects the control plane.
	Mode ControlMode
	// MetaFraction caps metadata at this fraction of each transfer
	// opportunity (Fig. 8's x-axis). Negative means uncapped, the
	// paper's default. Zero disables metadata exchange.
	MetaFraction float64
	// LocalOnlyMeta restricts metadata to packets in the sender's own
	// buffer (the rapid-local ablation arm, Fig. 14).
	LocalOnlyMeta bool
	// AcksOnly restricts the exchange to delivery acknowledgments
	// (Random-with-acks; MaxProp's notification flood).
	AcksOnly bool
	// Hops is the transitive meeting-estimation horizon (default 3).
	Hops int
	// DefaultTransferBytes seeds B (expected opportunity size) before
	// any transfer has been observed.
	DefaultTransferBytes float64
	// Workers selects the event engine's worker count: 0 or 1 execute
	// every event in place, n > 1 spread independent same-batch contact
	// sessions and creations across n goroutines, negative uses one
	// worker per available CPU. The scheduled events are the same at
	// every setting and so is the output; runs the parallel engine
	// cannot prove independent for (global control channel, Bernoulli
	// loss, conformance hooks, routers not marked SessionConfined) keep
	// one worker. Collector.EngineWorkers records the count armed.
	Workers int
}

// CapacityFor resolves one node's storage capacity in bytes
// (<= 0: unlimited) — the single authority the runtime, plan-ahead
// routers and conformance harnesses all share.
func (c Config) CapacityFor(id packet.NodeID) int64 {
	if c.BufferBytesFor != nil {
		return c.BufferBytesFor(id)
	}
	return c.BufferBytes
}

// DefaultTransferBytesFallback is used when Config.DefaultTransferBytes
// is unset.
const DefaultTransferBytesFallback = 100 << 10

// Node is one DTN node at runtime.
type Node struct {
	ID     packet.NodeID
	Store  *buffer.Store
	Ctl    *control.State
	Router Router
	Net    *Network

	// Down is maintained by the disruption layer's churn events: while
	// set, the node neither forwards nor receives — its sessions are
	// skipped and its live windows cut off. Local packet generation
	// continues (the application queues; only the radio is dark).
	Down bool

	// purgeScratch is the session's reused ack-purge victim buffer.
	purgeScratch []packet.ID
}

// Network owns the nodes, the engine, and the collector for one run.
type Network struct {
	Engine    *sim.Engine
	Nodes     map[packet.NodeID]*Node
	Collector *metrics.Collector
	Cfg       Config
	Global    *control.Global // non-nil in ControlGlobal mode
	// Horizon is the experiment end time (schedule duration).
	Horizon float64
	// win tracks live windowed contacts and per-node radio load;
	// allocated lazily by the first windowed contact (window.go).
	win *windowState
	// hooks is the optional conformance instrumentation (nil normally).
	hooks *Hooks
	// disrupt is the run's disruption model (nil for pristine runs —
	// the disabled layer stays entirely off the hot path).
	disrupt *disrupt.Model
	// lossSeq counts data transfers, indexing the loss decision stream.
	lossSeq uint64
}

// transferLost draws the loss decision for one data transfer. The
// bytes are already spent when this is consulted — the radio sent
// them — so a lost transfer burns opportunity without moving data.
func (n *Network) transferLost(id packet.ID, from, to packet.NodeID, now float64) bool {
	// The HasLoss guard is not just a fast path: at zero loss the
	// transfer counter is unobservable, so skipping it keeps loss-free
	// disrupted runs (churn, jitter, contact failure) free of shared
	// session state — which is what lets them use the parallel engine.
	if n.disrupt == nil || !n.disrupt.HasLoss() {
		return false
	}
	n.lossSeq++
	if !n.disrupt.Lost(n.lossSeq, id) {
		return false
	}
	//rapidlint:allow shardcommit — unreachable in a wave: parallelEligible sends every HasLoss run to the serial engine, and the guard above returns first otherwise
	n.Collector.LostTransfers++
	if h := n.hooks; h != nil && h.OnLost != nil {
		h.OnLost(id, from, to, now)
	}
	return true
}

// Now returns the simulation clock.
func (n *Network) Now() float64 { return n.Engine.Now() }

// Node returns the node with the given ID, creating it through the
// factory is the driver's job; lookup of a missing node panics (a
// schedule/workload mismatch is a bug in the scenario).
func (n *Network) Node(id packet.NodeID) *Node {
	nd, ok := n.Nodes[id]
	if !ok {
		panic(fmt.Sprintf("routing: unknown node %d", id))
	}
	return nd
}

// Router is the protocol interface. One Router instance is attached to
// each node. Routers are driven entirely by the session: they decide
// what to announce, what to deliver, what to replicate and in what
// order, and how to store incoming packets — the runtime moves the
// bytes and enforces budgets.
type Router interface {
	// Name identifies the protocol in reports.
	Name() string
	// Attach wires the router to its node; called once before the run.
	Attach(n *Node)
	// Generate handles a locally created packet. The router must store
	// it (marking it Own) if it wants it routed.
	Generate(p *packet.Packet, now float64)
	// Inventory returns the announce list for a metadata exchange, with
	// fresh delivery-delay estimates where the protocol computes them.
	Inventory(now float64) []control.InventoryItem
	// DirectQueue returns buffered packets destined to peer, in
	// delivery order (Protocol rapid Step 2: "decreasing order of
	// their utility").
	DirectQueue(peer packet.NodeID, now float64) []*buffer.Entry
	// PlanReplication returns replication candidates for this contact
	// in decreasing marginal-utility-per-byte order (Step 3). The
	// session filters duplicates, acked and oversized packets.
	PlanReplication(peer *Node, now float64) []*buffer.Entry
	// Accept stores an incoming replica, applying the protocol's
	// buffer-management policy; it reports whether the packet was kept.
	Accept(e *buffer.Entry, from packet.NodeID, now float64) bool
}

// Gossiper is an optional Router extension for protocols that exchange
// protocol-specific state at contacts (MaxProp's meeting-probability
// vectors, PRoPHET's delivery predictabilities). The paper charges only
// RAPID for its control channel ("In all experiments, we include the
// cost of rapid's in-band control channel"), so gossip is free.
type Gossiper interface {
	GossipWith(peer Router, now float64)
}

// ReplicationObserver is an optional Router extension notified when one
// of its entries was replicated to a peer (Spray-and-Wait halves its
// token count here).
type ReplicationObserver interface {
	OnReplicated(src *buffer.Entry, copy *buffer.Entry, to packet.NodeID)
}

// ReplicaDelayEstimator is an optional Router extension that supplies
// the expected direct-delivery delay of a replica just pushed to a peer
// (RAPID's hypothesized d_Y for the new copy, used to prime the control
// plane's metadata before the receiver's next exchange refreshes it).
type ReplicaDelayEstimator interface {
	EstimateReplicaDelay(e *buffer.Entry, holder *Node, now float64) float64
}

// SchedulePrimer is an optional Router extension for protocols that
// plan over the full contact schedule before the run starts (contact-
// graph routing over a deterministic contact plan). Run calls it once
// per node, in deterministic node order, after every router is attached
// and before any event executes. Routers sharing one planner should
// make priming idempotent.
type SchedulePrimer interface {
	PrimeSchedule(sched *trace.Schedule, net *Network)
}

// DeliveryObserver is an optional Router extension notified when a
// direct delivery it participated in completes — sender and receiver
// both observe it. Plan-ahead protocols use this to release downstream
// capacity and buffer reservations the delivered packet no longer
// needs.
type DeliveryObserver interface {
	OnDelivered(id packet.ID, now float64)
}

// ReplicaDelayFunc evaluates the hypothesized delay of replicating an
// entry to a fixed holder, against a fixed planning-time snapshot of
// that holder's state.
type ReplicaDelayFunc func(e *buffer.Entry) float64

// ReplicaDelaySnapshotter is an optional refinement of
// ReplicaDelayEstimator for sessions that outlive their planning
// instant (windowed contacts): the returned closure pins the holder
// snapshot taken *now*, so later per-send evaluations stay consistent
// even when interleaved contacts at the same node re-point the
// router's internal caches at other peers.
type ReplicaDelaySnapshotter interface {
	SnapshotReplicaDelays(holder *Node) ReplicaDelayFunc
}

// RouterFactory builds a fresh Router per node.
type RouterFactory func(id packet.NodeID) Router

// Hooks is optional runtime instrumentation for conformance testing:
// the cross-protocol invariant harness attaches one to observe physical
// deliveries, per-opportunity byte spending, and event-granular network
// state without touching protocol code. All fields may be nil.
type Hooks struct {
	// OnGenerated fires when a workload packet enters the network at its
	// source (right after the collector registers it) — the simulation
	// service streams these as per-packet telemetry. Like every other
	// hook it forces the serial engine, so hooked runs stay
	// byte-identical to unhooked ones.
	OnGenerated func(p *packet.Packet, now float64)
	// OnDelivered fires at every physical direct delivery, including
	// re-deliveries of a packet already delivered through another
	// replica (legitimate before the ack reaches the extra copies).
	OnDelivered func(id packet.ID, dst packet.NodeID, now float64)
	// OnOpportunityDone fires when a transfer opportunity finishes —
	// a point session returns, or a contact window closes — with its
	// total capacity and the bytes actually spent (control plus data,
	// both directions). spent > capacity is a runtime budgeting bug.
	// Opportunities suppressed by the disruption layer (failed
	// contacts, churned-down endpoints) never fire it.
	OnOpportunityDone func(a, b packet.NodeID, capacity, spent int64, windowed bool, now float64)
	// OnLost fires when the disruption layer loses a data transfer in
	// flight: the bytes were spent but the receiver got nothing, so a
	// delivery or replication of this packet must not result from this
	// transfer.
	OnLost func(id packet.ID, from, to packet.NodeID, now float64)
	// AfterEvent runs after every simulation event with the live
	// network (buffer-occupancy invariants are asserted here).
	AfterEvent func(net *Network)
}

// NewNetwork builds nodes for the given IDs with the factory.
func NewNetwork(engine *sim.Engine, ids []packet.NodeID, f RouterFactory, cfg Config) *Network {
	if cfg.Hops <= 0 {
		cfg.Hops = 3
	}
	if cfg.DefaultTransferBytes <= 0 {
		cfg.DefaultTransferBytes = DefaultTransferBytesFallback
	}
	net := &Network{
		Engine:    engine,
		Nodes:     make(map[packet.NodeID]*Node, len(ids)),
		Collector: metrics.New(),
		Cfg:       cfg,
	}
	if cfg.Mode == ControlGlobal {
		net.Global = control.NewGlobal()
	}
	for _, id := range ids {
		n := &Node{
			ID:    id,
			Store: buffer.New(cfg.CapacityFor(id)),
			Ctl:   control.NewState(id, cfg.Hops, net.Global),
			Net:   net,
		}
		n.Router = f(id)
		n.Router.Attach(n)
		net.Nodes[id] = n
	}
	return net
}

// Event bands: the materialized Run schedules everything upfront, so
// same-instant ordering is fixed by insertion sequence — workload
// creations, then meetings, then contacts, then churn toggles, with
// dynamically scheduled events after all of them. Lazily generated
// streams cannot rely on insertion order (their events are inserted
// mid-run), so they carry explicit bands reproducing the same
// same-instant precedence. Band 0 is the default for everything else.
const (
	bandPump     = -4 // cursor/source pump re-arms
	bandWorkload = -3 // streamed packet creations
	bandMeeting  = -2 // streamed point meetings
	bandContact  = -1 // streamed window opens/closes
)

// Scenario couples a schedule, a workload and a protocol for Run.
type Scenario struct {
	// Schedule is the materialized contact schedule. Exactly one of
	// Schedule and Plan must be set.
	Schedule *trace.Schedule
	// Plan, when Schedule is nil, drives the run directly off the
	// compressed periodic contact plan through a streaming cursor:
	// expanded-schedule memory stays O(plan size) instead of
	// O(occurrences). Runs needing the flattened schedule anyway —
	// disruption realization, SchedulePrimer protocols — fall back to a
	// one-time Expand.
	Plan *trace.ContactPlan
	// Workload is the materialized packet workload.
	Workload packet.Workload
	// Source, when non-nil, replaces Workload with a streaming
	// generator whose creation events are scheduled on demand.
	Source  packet.Source
	Factory RouterFactory
	Cfg     Config
	Seed    int64
	// MergePlanWindows coalesces back-to-back windowed occurrences when
	// running off Plan (see trace.PlanCursor); semantics-changing, so
	// opt-in.
	MergePlanWindows bool
	// Disrupt declares the run's stochastic disruption model; the zero
	// value (Enabled false) is the pristine network and keeps the
	// disruption layer entirely off the hot path.
	Disrupt disrupt.Spec
	// DisruptSeed seeds the disruption decision streams (derive with
	// disrupt.DeriveSeed so replications stay independent).
	DisruptSeed uint64
	// Hooks attaches conformance instrumentation to the run (nil for
	// normal runs).
	Hooks *Hooks
}

// Run replays the scenario and returns the collector. Packets whose
// source or destination never appears in the schedule are still
// injected (their node simply has no meetings).
//
// When sc.Disrupt is enabled, the disruption model is realized over
// the nominal schedule before any event runs: failed contacts are
// never scheduled, surviving contacts shift by their jitter draw, and
// node churn is expanded into down/up toggle events. Plan-ahead
// protocols still prime on the *nominal* schedule — the whole point of
// the disruption families is that their plans can break.
func Run(sc Scenario) *metrics.Collector {
	engine := sim.New(sc.Seed)
	sched := sc.Schedule
	horizon := 0.0
	if sched != nil {
		horizon = sched.Duration
	} else if sc.Plan != nil {
		horizon = sc.Plan.Duration
	}
	ids := participantIDs(sc)
	net := NewNetwork(engine, ids, sc.Factory, sc.Cfg)
	net.Horizon = horizon
	net.hooks = sc.Hooks
	if sc.Hooks != nil && sc.Hooks.AfterEvent != nil {
		engine.AfterEvent = func(*sim.Engine) { sc.Hooks.AfterEvent(net) }
	}
	var model *disrupt.Model
	if sc.Disrupt.Enabled {
		if err := sc.Disrupt.Validate(); err != nil {
			panic(err.Error())
		}
		model = disrupt.New(sc.Disrupt, sc.DisruptSeed)
		net.disrupt = model
	}

	// Plan-ahead protocols see the full schedule before any event runs
	// (the contact plan is known a priori in their deployment setting),
	// and the disruption layer realizes failures over the flattened
	// nominal schedule — both force a plan-driven run to materialize.
	var primers []SchedulePrimer
	for _, id := range ids {
		if pr, ok := net.Nodes[id].Router.(SchedulePrimer); ok {
			primers = append(primers, pr)
		}
	}
	if sched == nil && (model != nil || len(primers) > 0) {
		sched = sc.Plan.Expand()
	}
	for _, pr := range primers {
		pr.PrimeSchedule(sched, net)
	}

	// Every run schedules the same events; the worker count only decides
	// whether the engine batches its shard events across a pool, and a
	// run it cannot prove independent keeps one worker.
	net.Collector.EngineWorkers = 1
	if workers := resolveWorkers(sc.Cfg.Workers); workers > 1 && parallelEligible(sc, net, ids) {
		engine.SetWorkers(workers)
		net.Collector.EngineWorkers = workers
	}

	if sc.Source != nil {
		startSourcePump(engine, net, sc.Source)
	} else {
		// A lazy plan-driven run carries creations in bandWorkload so the
		// materialized creations-before-contacts order holds at shared
		// instants; the materialized path keeps band 0, where insertion
		// order already encodes it.
		wband := int32(0)
		if sched == nil {
			wband = bandWorkload
		}
		for _, p := range sc.Workload {
			engine.ScheduleBand(p.Created, wband, &generateEvent{net: net, p: p})
		}
	}
	if sched == nil {
		// Streaming plan-driven run: a pump walks the compressed cursor
		// and schedules each occurrence just in time, in the banded
		// order matching the materialized path.
		startPlanPump(engine, net, sc.Plan.Cursor(sc.MergePlanWindows), horizon)
		engine.RunUntil(horizon)
		net.Collector.EventsExecuted = engine.Executed
		return net.Collector
	}
	// contactIdx indexes the disruption decision streams across the
	// whole nominal schedule: meetings first, then contacts, in
	// schedule order — stable identity per contact regardless of which
	// contacts fail.
	contactIdx := 0
	schedule := func(c trace.Contact) {
		i := contactIdx
		contactIdx++
		if model != nil {
			if model.ContactFails(i) {
				return
			}
			var ok bool
			if c.Start, ok = jitterTime(c.Start, model.Jitter(i), horizon); !ok {
				return
			}
		}
		scheduleContact(engine, net, c, 0, horizon)
	}
	for _, m := range sched.Meetings {
		schedule(trace.Contact{A: m.A, B: m.B, Start: m.Time, Bytes: m.Bytes})
	}
	for _, c := range sched.Contacts {
		schedule(c)
	}
	// Node churn: expand each node's down intervals into toggle
	// events. Going down cuts the node's live windows; a contact whose
	// endpoint is down is skipped at its own event. Scheduled after
	// the contacts above so a same-instant contact resolves before the
	// radio drops (FIFO among same-time events).
	if model != nil {
		for _, id := range ids {
			node := net.Nodes[id]
			for _, iv := range model.DownIntervals(id, horizon) {
				engine.ScheduleFunc(iv.Start, func(e *sim.Engine) {
					node.Down = true
					net.churnClose(node.ID)
				})
				if iv.End < horizon {
					engine.ScheduleFunc(iv.End, func(e *sim.Engine) {
						node.Down = false
					})
				}
			}
		}
	}
	engine.RunUntil(horizon)
	net.Collector.EventsExecuted = engine.Executed
	return net.Collector
}

// scheduleContact schedules one transfer opportunity in the given
// same-time band: a point contact as a session event, a windowed one as
// an open/close span (never left dangling past the horizon). Zero-
// duration contacts are point meetings, byte for byte.
func scheduleContact(engine *sim.Engine, net *Network, c trace.Contact, band int32, horizon float64) {
	if !c.Windowed() {
		engine.ScheduleBand(c.Start, band, &sessionEvent{
			net: net, a: net.Node(c.A), b: net.Node(c.B),
			bytes: c.Bytes, at: c.Start,
		})
		return
	}
	var w *winContact
	engine.ScheduleSpan(c.Start, c.EndWithin(horizon), band,
		func(e *sim.Engine) { w = openWindow(net, c) },
		func(e *sim.Engine) {
			if w != nil {
				closeWindow(net, w)
			}
		})
}

// jitterTime shifts a contact instant by its jitter draw. A contact
// jittered outside the observation window [0, horizon) is missed
// entirely — it happened before the run began or after it ended, so
// executing it at a clamped instant would account opportunity that
// physically never existed.
func jitterTime(t, jitter, horizon float64) (float64, bool) {
	t += jitter
	if t < 0 || (horizon > 0 && t >= horizon) {
		return 0, false
	}
	return t, true
}

// participantIDs unions schedule (or plan) nodes and workload (or
// source) endpoints.
func participantIDs(sc Scenario) []packet.NodeID {
	seen := map[packet.NodeID]bool{}
	var ids []packet.NodeID
	add := func(id packet.NodeID) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	switch {
	case sc.Schedule != nil:
		for _, id := range sc.Schedule.Nodes() {
			add(id)
		}
	case sc.Plan != nil:
		for _, id := range sc.Plan.Nodes() {
			add(id)
		}
	}
	if sc.Source != nil {
		for _, id := range sc.Source.Endpoints() {
			add(id)
		}
	}
	for _, p := range sc.Workload {
		add(p.Src)
		add(p.Dst)
	}
	return ids
}

// startSourcePump schedules streamed packet creations on demand: one
// inline pump event per distinct creation instant schedules that
// instant's creations (in source order, in bandWorkload) and re-arms at
// the next instant. The creations pop right after the pump, before any
// meeting — preserving the materialized path's
// creations-before-contacts order at shared instants — and stay
// batchable with neighboring sessions. The pump itself only advances
// the private source cursor and schedules, so it is inline.
func startSourcePump(engine *sim.Engine, net *Network, src packet.Source) {
	pending, ok := src.Next()
	if !ok {
		return
	}
	var pump sim.InlineFunc
	pump = func(e *sim.Engine) {
		t := pending.Created
		for {
			engine.ScheduleBand(pending.Created, bandWorkload, &generateEvent{net: net, p: pending})
			if pending, ok = src.Next(); !ok {
				return
			}
			if pending.Created != t {
				engine.ScheduleBand(pending.Created, bandWorkload, pump)
				return
			}
		}
	}
	engine.ScheduleBand(pending.Created, bandWorkload, pump)
}

// startPlanPump schedules contact-plan occurrences on demand from the
// compressed cursor: at each distinct occurrence instant the inline
// pump schedules that instant's point meetings (bandMeeting) and window
// spans (bandContact), then re-arms at the cursor's next instant.
// Expanded-schedule memory never exists; the pending set is the cursor
// heap plus the live windows.
func startPlanPump(engine *sim.Engine, net *Network, cur *trace.PlanCursor, horizon float64) {
	pending, ok := cur.Next()
	if !ok {
		return
	}
	var pump sim.InlineFunc
	pump = func(e *sim.Engine) {
		t := pending.Start
		for {
			band := int32(bandMeeting)
			if pending.Windowed() {
				band = bandContact
			}
			scheduleContact(engine, net, pending, band, horizon)
			if pending, ok = cur.Next(); !ok {
				return
			}
			if pending.Start != t {
				engine.ScheduleBand(pending.Start, bandPump, pump)
				return
			}
		}
	}
	engine.ScheduleBand(pending.Start, bandPump, pump)
}
