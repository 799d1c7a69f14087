package main

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"sort"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/core"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/routing/cgr"
	"rapid/internal/trace"
)

// op names one router call the traced pass records a span for.
type op uint8

const (
	opCoreGenerate op = iota
	opCoreInventory
	opCoreDirectQueue
	opCorePlanReplication
	opCoreAccept
	opCoreReplicaDelay
	opCGRPrime
	opCGRGenerate
	opCGRDirectQueue
	opCGRPlanReplication
	opCGRAccept
	opCGROnDelivered
	numOps
)

// opNames are the per-layer metric stems, indexed by op.
var opNames = [numOps]string{
	"core.generate", "core.inventory", "core.direct_queue",
	"core.plan_replication", "core.accept", "core.replica_delay",
	"cgr.prime", "cgr.generate", "cgr.direct_queue",
	"cgr.plan_replication", "cgr.accept", "cgr.on_delivered",
}

// span is one timed router call, in nanoseconds since epoch. Its
// parent is the routing.Run span of the scenario that owns its buffer.
type span struct {
	op         op
	start, end int64
}

// nodeTrace is one node's span buffer. Only the goroutine running one
// of the node's sessions appends to it — the parallel engine never
// runs two sessions of a node at once — so buffers need no lock.
type nodeTrace struct {
	node  *routing.Node
	inner routing.Router
	spans []span
	// accepts and kept count core.Router.Accept calls and how many
	// stored the replica.
	accepts, kept int
}

func (t *nodeTrace) record(o op, start int64) {
	t.spans = append(t.spans, span{op: o, start: start, end: clock()})
}

// runTrace holds one scenario run's spans: the routing.Run span and
// the per-node buffers of its wrapped routers.
type runTrace struct {
	scenario   int
	start, end int64
	nodes      []*nodeTrace
}

func newRunTrace(scenario int) *runTrace { return &runTrace{scenario: scenario} }

// wrap returns a factory whose core and CGR routers record spans into
// this trace. Other routers are returned as built: MaxProp and PRoPHET
// type-assert their peers and would silently stop gossiping behind a
// wrapper.
func (rt *runTrace) wrap(f routing.RouterFactory) routing.RouterFactory {
	return func(id packet.NodeID) routing.Router {
		r := f(id)
		var w routing.Router
		switch in := r.(type) {
		case *core.Router:
			t := &nodeTrace{inner: in}
			w = &coreTracer{in: in, t: t}
			rt.nodes = append(rt.nodes, t)
		case *cgr.Router:
			t := &nodeTrace{inner: in}
			w = &cgrTracer{in: in, t: t}
			rt.nodes = append(rt.nodes, t)
		default:
			return r
		}
		if err := sameExtensions(r, w); err != nil {
			panic(err.Error())
		}
		return w
	}
}

// extensions are the optional Router interfaces the runtime
// type-asserts on a node's router.
var extensions = []reflect.Type{
	reflect.TypeFor[routing.SessionConfined](),
	reflect.TypeFor[routing.Gossiper](),
	reflect.TypeFor[routing.ReplicationObserver](),
	reflect.TypeFor[routing.ReplicaDelayEstimator](),
	reflect.TypeFor[routing.ReplicaDelaySnapshotter](),
	reflect.TypeFor[routing.SchedulePrimer](),
	reflect.TypeFor[routing.DeliveryObserver](),
}

// sameExtensions checks that a wrapper implements exactly the optional
// interfaces its router does, so the runtime takes the same paths —
// the parallel engine, replica-delay priming, plan priming — with
// tracing on and off.
func sameExtensions(inner, wrapper routing.Router) error {
	for _, x := range extensions {
		if reflect.TypeOf(inner).Implements(x) != reflect.TypeOf(wrapper).Implements(x) {
			return fmt.Errorf("perfbench: %T wrapper disagrees with %T on %v", wrapper, inner, x)
		}
	}
	return nil
}

// coreTracer records spans around a RAPID router, forwarding exactly
// the optional interfaces core.Router implements.
type coreTracer struct {
	in *core.Router
	t  *nodeTrace
}

func (c *coreTracer) Name() string { return c.in.Name() }

func (c *coreTracer) Attach(n *routing.Node) {
	c.t.node = n
	c.in.Attach(n)
}

func (c *coreTracer) SessionConfined() { c.in.SessionConfined() }

func (c *coreTracer) Generate(p *packet.Packet, now float64) {
	s := clock()
	c.in.Generate(p, now)
	c.t.record(opCoreGenerate, s)
}

func (c *coreTracer) Inventory(now float64) []control.InventoryItem {
	s := clock()
	inv := c.in.Inventory(now)
	c.t.record(opCoreInventory, s)
	return inv
}

func (c *coreTracer) DirectQueue(peer packet.NodeID, now float64) []*buffer.Entry {
	s := clock()
	q := c.in.DirectQueue(peer, now)
	c.t.record(opCoreDirectQueue, s)
	return q
}

func (c *coreTracer) PlanReplication(peer *routing.Node, now float64) []*buffer.Entry {
	s := clock()
	plan := c.in.PlanReplication(peer, now)
	c.t.record(opCorePlanReplication, s)
	return plan
}

func (c *coreTracer) Accept(e *buffer.Entry, from packet.NodeID, now float64) bool {
	s := clock()
	kept := c.in.Accept(e, from, now)
	c.t.record(opCoreAccept, s)
	c.t.accepts++
	if kept {
		c.t.kept++
	}
	return kept
}

func (c *coreTracer) EstimateReplicaDelay(e *buffer.Entry, holder *routing.Node, now float64) float64 {
	s := clock()
	d := c.in.EstimateReplicaDelay(e, holder, now)
	c.t.record(opCoreReplicaDelay, s)
	return d
}

func (c *coreTracer) SnapshotReplicaDelays(holder *routing.Node) routing.ReplicaDelayFunc {
	f := c.in.SnapshotReplicaDelays(holder)
	return func(e *buffer.Entry) float64 {
		s := clock()
		d := f(e)
		c.t.record(opCoreReplicaDelay, s)
		return d
	}
}

// cgrTracer records spans around a CGR router, forwarding exactly the
// optional interfaces cgr.Router implements.
type cgrTracer struct {
	in *cgr.Router
	t  *nodeTrace
}

func (c *cgrTracer) Name() string { return c.in.Name() }

func (c *cgrTracer) Attach(n *routing.Node) {
	c.t.node = n
	c.in.Attach(n)
}

func (c *cgrTracer) PrimeSchedule(sched *trace.Schedule, net *routing.Network) {
	s := clock()
	c.in.PrimeSchedule(sched, net)
	c.t.record(opCGRPrime, s)
}

func (c *cgrTracer) Generate(p *packet.Packet, now float64) {
	s := clock()
	c.in.Generate(p, now)
	c.t.record(opCGRGenerate, s)
}

func (c *cgrTracer) Inventory(now float64) []control.InventoryItem { return c.in.Inventory(now) }

func (c *cgrTracer) DirectQueue(peer packet.NodeID, now float64) []*buffer.Entry {
	s := clock()
	q := c.in.DirectQueue(peer, now)
	c.t.record(opCGRDirectQueue, s)
	return q
}

func (c *cgrTracer) PlanReplication(peer *routing.Node, now float64) []*buffer.Entry {
	s := clock()
	plan := c.in.PlanReplication(peer, now)
	c.t.record(opCGRPlanReplication, s)
	return plan
}

func (c *cgrTracer) Accept(e *buffer.Entry, from packet.NodeID, now float64) bool {
	s := clock()
	kept := c.in.Accept(e, from, now)
	c.t.record(opCGRAccept, s)
	return kept
}

func (c *cgrTracer) OnDelivered(id packet.ID, now float64) {
	s := clock()
	c.in.OnDelivered(id, now)
	c.t.record(opCGROnDelivered, s)
}

// layerTotals aggregates the spans of a traced pass.
type layerTotals struct {
	ns    [numOps]int64
	calls [numOps]int64
	// runNs is Σ routing.Run span durations; selfNs is Σ of each run's
	// duration minus the part of it router spans cover.
	runNs, selfNs int64
	accepts, kept int64
	spans         int64
}

func totals(traces []*runTrace) layerTotals {
	var lt layerTotals
	for _, rt := range traces {
		var all []span
		for _, t := range rt.nodes {
			for _, s := range t.spans {
				lt.ns[s.op] += s.end - s.start
				lt.calls[s.op]++
			}
			all = append(all, t.spans...)
			lt.accepts += int64(t.accepts)
			lt.kept += int64(t.kept)
		}
		lt.spans += int64(len(all))
		run := rt.end - rt.start
		lt.runNs += run
		lt.selfNs += run - covered(all)
	}
	return lt
}

// covered is the length of the union of the spans' intervals: under the
// parallel engine, spans of different nodes overlap in time.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total, curStart, curEnd int64
	open := false
	for _, s := range spans {
		switch {
		case !open:
			curStart, curEnd, open = s.start, s.end, true
		case s.start > curEnd:
			total += curEnd - curStart
			curStart, curEnd = s.start, s.end
		case s.end > curEnd:
			curEnd = s.end
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// writeSpans writes every span of a traced pass as tab-separated rows:
// scenario, node, span name, start and end in ns since the benchmark
// started, and the parent span. Each scenario's routing.Run span is the
// parent of its router spans.
func writeSpans(w io.Writer, traces []*runTrace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "scenario\tnode\tspan\tstart_ns\tend_ns\tparent")
	for _, rt := range traces {
		fmt.Fprintf(bw, "%d\t-\trouting.run\t%d\t%d\t-\n", rt.scenario, rt.start, rt.end)
		for _, t := range rt.nodes {
			for _, s := range t.spans {
				fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\trouting.run\n",
					rt.scenario, t.node.ID, opNames[s.op], s.start, s.end)
			}
		}
	}
	return bw.Flush()
}
