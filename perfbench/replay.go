package main

import (
	"rapid/internal/control"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/scenario"
)

// replayResult is what replaying the control and meet layers on a
// finished run's end state measured.
type replayResult struct {
	// exchangeNs holds one duration per control.Exchange, in plan order.
	exchangeNs []float64
	wireBytes  int64
	// allocBytes is the heap allocated across all exchanges.
	allocBytes uint64
	// expectedNs and expectedCalls time meet.Expected over every node ×
	// destination.
	expectedNs    int64
	expectedCalls int64
	// knownTablesMean is the mean number of meeting tables a node held
	// when the run ended.
	knownTablesMean float64
}

// neighbour is one contact-plan (or schedule) node pair and the
// opportunity size of its first contact.
type neighbour struct {
	a, b  packet.NodeID
	bytes int64
}

// neighbours lists each node pair that has a contact, once, in plan
// order (schedule order for a materialized run).
func neighbours(rs routing.Scenario) []neighbour {
	var out []neighbour
	seen := map[[2]packet.NodeID]bool{}
	add := func(a, b packet.NodeID, bytes int64) {
		k := [2]packet.NodeID{min(a, b), max(a, b)}
		if !seen[k] {
			seen[k] = true
			out = append(out, neighbour{a: a, b: b, bytes: bytes})
		}
	}
	if rs.Plan != nil {
		for _, c := range rs.Plan.Contacts {
			add(c.A, c.B, c.Bytes)
		}
		return out
	}
	for _, m := range rs.Schedule.Meetings {
		add(m.A, m.B, m.Bytes)
	}
	return out
}

// replay times the control and meet layers on the end state of a traced
// run, through the *routing.Node pointers its routers captured at
// Attach: one control.Exchange per neighbour pair at the horizon H, in
// plan order, then Meet.Expected(n, g) for every node n and destination
// g. The order is fixed, so the replayed work is the same on every
// repetition of a seed.
func replay(rt *runTrace, rs routing.Scenario, s scenario.Scenario) replayResult {
	var res replayResult
	nodes := map[packet.NodeID]*nodeTrace{}
	var tables int
	for _, t := range rt.nodes {
		nodes[t.node.ID] = t
		tables += len(t.node.Ctl.Meet.KnownTables())
	}
	if len(rt.nodes) > 0 {
		res.knownTablesMean = float64(tables) / float64(len(rt.nodes))
	}
	h := horizon(rs)
	cfg := rs.Cfg
	pairs := neighbours(rs)
	res.exchangeNs = make([]float64, 0, len(pairs))
	for _, p := range pairs {
		a, b := nodes[p.a], nodes[p.b]
		if a == nil || b == nil {
			continue
		}
		invA, invB := a.inner.Inventory(h), b.inner.Inventory(h)
		opts := control.Options{MaxBytes: p.bytes, LocalOnly: cfg.LocalOnlyMeta, AcksOnly: cfg.AcksOnly}
		alloc0 := allocatedBytes()
		start := clock()
		r := control.Exchange(a.node.Ctl, b.node.Ctl, invA, invB, h, opts)
		end := clock()
		res.allocBytes += allocatedBytes() - alloc0
		res.exchangeNs = append(res.exchangeNs, float64(end-start))
		res.wireBytes += r.Bytes
	}

	dests := destinations(s)
	start := clock()
	for _, t := range rt.nodes {
		for _, g := range dests {
			t.node.Ctl.Meet.Expected(t.node.ID, g)
			res.expectedCalls++
		}
	}
	res.expectedNs = clock() - start
	return res
}
