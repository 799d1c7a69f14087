package routing

import (
	"rapid/internal/buffer"
	"rapid/internal/packet"
	"rapid/internal/sim"
	"rapid/internal/trace"
)

// This file implements duration-aware contacts: a trace.Contact with
// temporal extent opens at its start event, runs the control phase
// against a byte budget of RateBps·Duration, and then *streams* data
// packets across the window — each transfer is a timed event whose
// completion instant depends on the link rate, and a packet that cannot
// finish before the window closes is cut off. Nodes serving several
// overlapping windows share their radio fairly: each node divides its
// rate equally among its live windows, and a window runs at the rate
// its more-contended endpoint allows. Point meetings (and zero-duration
// contacts, which degrade to them) keep the instantaneous Session path
// untouched.

// windowState tracks the live windowed contacts of one run and each
// node's radio load (how many windows it is currently serving). It is
// allocated lazily so point-meeting runs carry no window machinery.
type windowState struct {
	live []*winContact // insertion order; deterministic iteration
	load map[packet.NodeID]int
}

// windows returns the network's window registry, creating it on first
// windowed contact.
func (n *Network) windows() *windowState {
	if n.win == nil {
		n.win = &windowState{load: make(map[packet.NodeID]int)}
	}
	return n.win
}

// Streaming phases of one window, in Protocol rapid order: direct
// deliveries in both directions (Step 2), then the two replication
// plans interleaved round-robin (Step 3), then drained.
const (
	phaseDirectXY = iota
	phaseDirectYX
	phaseReplicate
	phaseDrained
)

// winContact is one live windowed contact.
type winContact struct {
	s *Session
	c trace.Contact

	// Queue and plan snapshots taken at window start. The point session
	// consumes the routers' scratch slices immediately; a window
	// outlives them, and overlapping windows at one node would clobber
	// each other's scratch, so the snapshots are copied.
	dirX, dirY   []*buffer.Entry
	planX, planY []*buffer.Entry
	// estX/estY pin each direction's planning-time replica-delay
	// snapshot (nil when the router estimates none): a router's
	// single-slot peer cache may be re-pointed at another peer by an
	// interleaved contact mid-window.
	estX, estY ReplicaDelayFunc

	phase              int
	di                 int // cursor in the current direct queue
	ix, iy             int // replication plan cursors
	turnX              bool
	stalledX, stalledY bool

	cur    *transfer // in-flight packet, nil when idle or drained
	closed bool
}

// transfer is one packet streaming across a window.
type transfer struct {
	from, to  *Node
	e         *buffer.Entry
	replicate bool
	remaining float64 // bytes still to stream
	rate      float64 // current effective rate, bytes/s
	since     float64 // time progress was last accrued
	done      sim.Handle
}

// accrue folds elapsed streaming time into the transfer's progress.
func (t *transfer) accrue(now float64) {
	t.remaining -= t.rate * (now - t.since)
	if t.remaining < 0 {
		t.remaining = 0
	}
	t.since = now
}

// openWindow begins a windowed contact at its start event. The control
// phase runs once at window start — metadata is exchanged "at the start
// of a transfer opportunity" (§4.2) — charged against the full-window
// byte budget; queue and plan snapshots are taken then too, so packets
// arriving mid-window wait for the next contact, exactly as they miss
// an instantaneous meeting.
func openWindow(net *Network, c trace.Contact) *winContact {
	x, y := net.Node(c.A), net.Node(c.B)
	if x.Down || y.Down {
		// A window opening against a churned-down radio never
		// establishes: the whole contact is lost (it does not defer to
		// the node's return — the pass geometry has moved on by then).
		return nil
	}
	capacity := c.Capacity()
	s := &Session{net: net, x: x, y: y, budget: capacity, capacity: capacity, now: net.Now()}
	// A window outlives its opening event and is always driven serially,
	// so its accounting goes straight to the collector.
	s.stats = &net.Collector.Delta
	s.open()

	w := &winContact{s: s, c: c, turnX: true}
	w.dirX = copyEntries(x.Router.DirectQueue(y.ID, s.now))
	w.dirY = copyEntries(y.Router.DirectQueue(x.ID, s.now))
	w.planX = copyEntries(x.Router.PlanReplication(y, s.now))
	w.estX = replicaDelayFn(net, x.Router, y)
	w.planY = copyEntries(y.Router.PlanReplication(x, s.now))
	w.estY = replicaDelayFn(net, y.Router, x)

	ws := net.windows()
	ws.live = append(ws.live, w)
	ws.load[c.A]++
	ws.load[c.B]++
	// The new window dilutes its endpoints' radios: slow down any
	// in-flight transfer sharing a node with this contact.
	ws.retime(net, s.now, c.A, c.B)
	w.startNext(net, s.now)
	return w
}

// closeWindow ends a windowed contact at its end event. An in-flight
// transfer is cut off: the bytes already radiated are spent against the
// budget (the radio sent them) but the receiver never obtains a usable
// packet, so nothing is delivered or replicated.
func closeWindow(net *Network, w *winContact) {
	if w.closed {
		return
	}
	w.closed = true
	now := net.Now()
	ws := net.windows()
	if t := w.cur; t != nil {
		t.accrue(now)
		t.done.Cancel()
		if sent := int64(float64(t.e.P.Size) - t.remaining); sent > 0 {
			if sent > w.s.budget {
				sent = w.s.budget
			}
			w.s.budget -= sent
		}
		w.cur = nil
	}
	for i, lc := range ws.live {
		if lc == w {
			ws.live = append(ws.live[:i], ws.live[i+1:]...)
			break
		}
	}
	ws.load[w.c.A]--
	ws.load[w.c.B]--
	// The endpoints' radios are free again: speed up survivors.
	ws.retime(net, now, w.c.A, w.c.B)
	if h := net.hooks; h != nil && h.OnOpportunityDone != nil {
		capacity := w.c.Capacity()
		h.OnOpportunityDone(w.c.A, w.c.B, capacity, capacity-w.s.budget, true, now)
	}
}

// effRate is the window's current effective rate under fair radio
// sharing: each node divides its radio equally among its live windows,
// and a window runs at the rate its more-contended endpoint allows.
func (w *winContact) effRate(ws *windowState) float64 {
	den := max(ws.load[w.c.A], ws.load[w.c.B], 1)
	return w.c.RateBps / float64(den)
}

// retime re-shares the radios of the given nodes: every in-flight
// transfer on a live window touching one of them accrues progress at
// its old rate, then is rescheduled at the new effective rate.
func (ws *windowState) retime(net *Network, now float64, a, b packet.NodeID) {
	for _, lc := range ws.live {
		if lc.cur == nil || (lc.c.A != a && lc.c.B != a && lc.c.A != b && lc.c.B != b) {
			continue
		}
		lc.cur.accrue(now)
		lc.cur.done.Cancel()
		lc.schedule(net, now)
	}
}

// schedule (re)computes the in-flight transfer's effective rate and
// books its completion event.
func (w *winContact) schedule(net *Network, now float64) {
	t := w.cur
	t.rate = w.effRate(net.win)
	t.since = now
	t.done = net.Engine.ScheduleFunc(now+t.remaining/t.rate, func(*sim.Engine) {
		w.complete(net)
	})
}

// begin starts streaming one packet.
func (w *winContact) begin(net *Network, now float64, from, to *Node, e *buffer.Entry, replicate bool) {
	w.cur = &transfer{from: from, to: to, e: e, replicate: replicate, remaining: float64(e.P.Size)}
	w.schedule(net, now)
}

// complete finalizes the in-flight transfer at its completion event and
// moves on to the next candidate. The byte budget is charged whether or
// not the receiver keeps the copy (the radio already sent the bytes),
// mirroring the point session.
func (w *winContact) complete(net *Network) {
	if w.closed || w.cur == nil {
		return
	}
	t := w.cur
	w.cur = nil
	now := net.Now()
	w.s.budget -= t.e.P.Size
	if net.transferLost(t.e.P.ID, t.from.ID, t.to.ID, now) {
		// Lost in flight: the window radiated the full packet but the
		// receiver got garbage — budget spent, nothing committed.
		w.startNext(net, now)
		return
	}
	if t.replicate {
		w.commitReplica(net, t, now)
	} else {
		w.commitDirect(net, t, now)
	}
	w.startNext(net, now)
}

// commitDirect finalizes a streamed direct delivery. The packet may
// have been delivered or evicted through a concurrent window while in
// flight; such discarded transfers — like cut-offs and rejected
// replicas — spend budget but do not count as data.
func (w *winContact) commitDirect(net *Network, t *transfer, now float64) {
	id := t.e.P.ID
	if !t.from.Store.Has(id) {
		return // evicted mid-flight
	}
	if net.Collector.IsDelivered(id) && t.from.Ctl.IsAcked(id) {
		t.from.Store.Remove(id) // delivered through a concurrent window
		return
	}
	w.s.deliverDirect(t.from, t.to, t.e, now)
}

// commitReplica finalizes a streamed replication through the point
// session's shared bookkeeping, re-checking the in-flight-mutable
// eligibility state (budget was reserved at selection) and evaluating
// the sender's hypothesized delay against this direction's pinned
// planning-time snapshot.
func (w *winContact) commitReplica(net *Network, t *transfer, now float64) {
	if !replicableState(t.e, t.from, t.to) {
		return // overtaken mid-flight; the radiated bytes are lost
	}
	est := w.estX
	if t.from == w.s.y {
		est = w.estY
	}
	w.s.acceptReplica(t.from, t.to, t.e, now, est)
}

// startNext advances the window's streaming cursor to the next eligible
// packet and begins transmitting it. Selection order mirrors the point
// session: direct deliveries X→Y then Y→X, then the replication plans
// interleaved round-robin until both stall or the budget runs dry.
func (w *winContact) startNext(net *Network, now float64) {
	for {
		switch w.phase {
		case phaseDirectXY, phaseDirectYX:
			from, to, q := w.s.x, w.s.y, w.dirX
			if w.phase == phaseDirectYX {
				from, to, q = w.s.y, w.s.x, w.dirY
			}
			if e, ok := w.nextDirect(net, from, q); ok {
				w.begin(net, now, from, to, e, false)
				return
			}
			w.phase++
			w.di = 0
		case phaseReplicate:
			if e, from, to, ok := w.nextReplica(); ok {
				w.begin(net, now, from, to, e, true)
				return
			}
			w.phase = phaseDrained
		default:
			return
		}
	}
}

// nextDirect scans the direct queue snapshot for the next deliverable
// packet (Session.directDeliver's filters, spread over time).
func (w *winContact) nextDirect(net *Network, from *Node, q []*buffer.Entry) (*buffer.Entry, bool) {
	for ; w.di < len(q); w.di++ {
		e := q[w.di]
		if !from.Store.Has(e.P.ID) {
			continue // delivered or evicted since the window opened
		}
		send, purge := w.s.directEligible(e, from)
		if purge {
			from.Store.Remove(e.P.ID)
			continue
		}
		if !send {
			continue
		}
		w.di++
		return e, true
	}
	return nil, false
}

// nextReplica alternates between the two directions' plans, sticky-
// stalling a direction once its plan is exhausted (the point session's
// replicate loop, spread over time).
func (w *winContact) nextReplica() (*buffer.Entry, *Node, *Node, bool) {
	for !w.stalledX || !w.stalledY {
		if w.turnX {
			w.turnX = false
			if e, ok := w.nextFromPlan(w.s.x, w.s.y, w.planX, &w.ix); ok {
				return e, w.s.x, w.s.y, true
			}
			w.stalledX = true
		} else {
			w.turnX = true
			if e, ok := w.nextFromPlan(w.s.y, w.s.x, w.planY, &w.iy); ok {
				return e, w.s.y, w.s.x, true
			}
			w.stalledY = true
		}
	}
	return nil, nil, nil, false
}

// nextFromPlan applies Session.replicable to the plan snapshot,
// advancing the shared cursor.
func (w *winContact) nextFromPlan(from, to *Node, plan []*buffer.Entry, i *int) (*buffer.Entry, bool) {
	for ; *i < len(plan); *i++ {
		e := plan[*i]
		if !w.s.replicable(e, from, to) {
			continue
		}
		*i++
		return e, true
	}
	return nil, false
}

// churnClose cuts off every live window touching a node whose radio
// just went down: in-flight transfers are truncated exactly as at a
// natural window close (closeWindow charges the radiated bytes and
// re-shares the surviving radios).
func (n *Network) churnClose(id packet.NodeID) {
	if n.win == nil {
		return
	}
	// Snapshot first: closeWindow splices the live list.
	var victims []*winContact
	for _, w := range n.win.live {
		if w.c.A == id || w.c.B == id {
			victims = append(victims, w)
		}
	}
	for _, w := range victims {
		closeWindow(n, w)
	}
}

// replicaDelayFn resolves the direction's replica-delay evaluator at
// planning time: a pinned snapshot when the router can capture one, a
// live fallback for plain estimators, nil when the protocol estimates
// none.
func replicaDelayFn(net *Network, r Router, holder *Node) ReplicaDelayFunc {
	if snap, ok := r.(ReplicaDelaySnapshotter); ok {
		return snap.SnapshotReplicaDelays(holder)
	}
	if est, ok := r.(ReplicaDelayEstimator); ok {
		return func(e *buffer.Entry) float64 {
			return est.EstimateReplicaDelay(e, holder, net.Now())
		}
	}
	return nil
}

// copyEntries snapshots a router-owned scratch slice.
func copyEntries(src []*buffer.Entry) []*buffer.Entry {
	if len(src) == 0 {
		return nil
	}
	out := make([]*buffer.Entry, len(src))
	copy(out, src)
	return out
}
