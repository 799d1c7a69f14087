// Package meet implements the inter-node meeting-time estimation of
// §4.1.2: every node tabulates the average time between its meetings
// with every other node, exchanges these tables through the control
// channel, assembles them into a meeting-time adjacency matrix, and
// estimates the expected time for any node to meet any other within at
// most h hops (h=3 in the paper; pairs unreachable in h hops get an
// infinite expected meeting time).
package meet

import (
	"cmp"
	"math"
	"slices"

	"rapid/internal/packet"
	"rapid/internal/stat"
)

// DefaultHops is the paper's transitive-estimation horizon
// ("In our implementation we restrict h = 3").
const DefaultHops = 3

// Table maps a peer to the expected direct inter-meeting time in
// seconds. It is the literal form MergeTable accepts; the estimator
// itself stores tables as sorted rows.
type Table map[packet.NodeID]float64

// Estimator is one node's view of the network's meeting behaviour. It is
// not safe for concurrent use.
//
// All per-node state is laid out struct-of-arrays style, indexed by the
// dense node ID space of a run (scenario generators hand out IDs
// 0..N-1): at mega-constellation populations a map-keyed layout spends
// most of the hot path hashing NodeIDs and chasing map buckets.
type Estimator struct {
	self packet.NodeID
	hops int

	// direct accumulates locally observed inter-meeting gaps per peer,
	// indexed by peer ID (nil = never met).
	direct []*stat.MovingAverage
	// lastSeen is the time of the previous meeting per peer, to turn
	// meeting instants into gaps. A virtual meeting at time 0 (epoch
	// start) bootstraps the first gap — exactly the semantics of the
	// slice's zero value — so a single observed meeting already yields a
	// finite, if rough, estimate that later observations refine.
	lastSeen []float64

	// rows is the merged matrix: every node's direct table as learned
	// via the control channel, indexed by owner ID and sorted by peer
	// ID; rows[self] holds the local averages. Gossip re-merges whole
	// tables on nearly every contact, so a merge is one linear diff of
	// two sorted rows (mergeRow), and a pair weight is a binary search.
	rows [][]halfEdge
	// known marks owners whose table has been installed — an empty row
	// still counts. owners lists them ascending for KnownTables.
	known  []bool
	owners []packet.NodeID

	// version invalidates the shortest-path memo on any mutation.
	version uint64

	// adj is the merged matrix flattened into slice-indexed adjacency
	// lists, maintained incrementally as pairs change: estimating over
	// it is O(h·(V+E)) instead of O(h·V²). Each adj[u] is kept sorted by
	// target ID.
	n   int // node universe size: max known ID + 1
	adj [][]halfEdge

	// memo caches per-source distance rows, each stamped with the
	// version it was computed at and recomputed in place once stale;
	// distScratch is the relaxation double-buffer.
	memo        []memoRow
	distScratch []float64
}

// halfEdge is one directed arc of the flattened meeting matrix, or one
// entry of an owner's table.
type halfEdge struct {
	to packet.NodeID
	w  float64
}

// memoRow is one source's h-hop distances as of version ver-1 (ver 0 =
// never computed).
type memoRow struct {
	ver  uint64
	dist []float64
}

// New returns an estimator for node self using an h-hop horizon
// (h <= 0 selects DefaultHops).
func New(self packet.NodeID, hops int) *Estimator {
	if hops <= 0 {
		hops = DefaultHops
	}
	e := &Estimator{self: self, hops: hops}
	e.ensureNode(self)
	return e
}

// Self returns the owning node's ID.
func (e *Estimator) Self() packet.NodeID { return e.self }

// Hops returns the transitive horizon.
func (e *Estimator) Hops() int { return e.hops }

// ObserveMeeting records a meeting with peer at the given time,
// updating the average inter-meeting gap. An estimator with a negative
// self ID has no own table and ignores observations.
func (e *Estimator) ObserveMeeting(peer packet.NodeID, now float64) {
	if peer == e.self || peer < 0 || e.self < 0 {
		return
	}
	e.ensureNode(peer)
	ma := e.direct[peer]
	if ma == nil {
		ma = &stat.MovingAverage{}
		e.direct[peer] = ma
	}
	ma.Observe(now - e.lastSeen[peer]) // lastSeen defaults to 0 = epoch start
	e.lastSeen[peer] = now
	w := ma.Value()
	e.markKnown(e.self)
	e.rows[e.self] = edgeSet(e.rows[e.self], peer, w)
	e.refreshPair(e.self, peer, w)
	e.version++
}

// ensureNode grows the dense per-node arrays to cover id.
func (e *Estimator) ensureNode(id packet.NodeID) {
	if id < 0 || int(id) < e.n {
		return
	}
	e.n = int(id) + 1
	for len(e.adj) < e.n {
		e.adj = append(e.adj, nil)
		e.direct = append(e.direct, nil)
		e.lastSeen = append(e.lastSeen, 0)
		e.rows = append(e.rows, nil)
		e.known = append(e.known, false)
	}
}

// markKnown records that owner's table is installed.
func (e *Estimator) markKnown(owner packet.NodeID) {
	if e.known[owner] {
		return
	}
	e.known[owner] = true
	i, _ := slices.BinarySearch(e.owners, owner)
	e.owners = slices.Insert(e.owners, i, owner)
}

// edgeFind binary-searches a sorted row for target v, returning the
// position it occupies or should occupy.
func edgeFind(lst []halfEdge, v packet.NodeID) (int, bool) {
	lo, hi := 0, len(lst)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if lst[h].to < v {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(lst) && lst[lo].to == v
}

// edgeSet inserts or updates the entry for v, keeping lst sorted.
func edgeSet(lst []halfEdge, v packet.NodeID, w float64) []halfEdge {
	i, ok := edgeFind(lst, v)
	if ok {
		lst[i].w = w
		return lst
	}
	return slices.Insert(lst, i, halfEdge{to: v, w: w})
}

// edgeDel removes the entry for v if present.
func edgeDel(lst []halfEdge, v packet.NodeID) []halfEdge {
	if i, ok := edgeFind(lst, v); ok {
		return slices.Delete(lst, i, i+1)
	}
	return lst
}

// refreshPair re-derives the (u, v) edge weight — the optimistic min of
// u's entry for v, passed in as wuv (+Inf when absent), and v's stored
// entry for u — and patches the adjacency lists in place. Callers pass
// wuv because inside a merge rows[u] is not yet rewritten; u is
// already inside the node universe.
func (e *Estimator) refreshPair(u, v packet.NodeID, wuv float64) {
	if u == v || u < 0 || v < 0 {
		return
	}
	e.ensureNode(v)
	w := math.Inf(1)
	if wuv < w {
		w = wuv
	}
	if i, ok := edgeFind(e.rows[v], u); ok && e.rows[v][i].w < w {
		w = e.rows[v][i].w
	}
	if math.IsInf(w, 1) {
		e.adj[u] = edgeDel(e.adj[u], v)
		e.adj[v] = edgeDel(e.adj[v], u)
		return
	}
	e.adj[u] = edgeSet(e.adj[u], v, w)
	e.adj[v] = edgeSet(e.adj[v], u, w)
}

// TableLen reports the entry count of owner's stored table and whether
// that table is known at all — what the control channel needs to price
// a table on the wire.
func (e *Estimator) TableLen(owner packet.NodeID) (int, bool) {
	if owner < 0 || int(owner) >= e.n || !e.known[owner] {
		return 0, false
	}
	return len(e.rows[owner]), true
}

// MergeTable installs owner's direct table as learned from a metadata
// exchange, replacing any older version. It sorts t into a row and
// applies the same diff as MergeTableFrom. The passed table is not
// retained.
func (e *Estimator) MergeTable(owner packet.NodeID, t Table) {
	if owner == e.self || owner < 0 {
		return // own table is maintained locally
	}
	row := make([]halfEdge, 0, len(t))
	for id, w := range t {
		row = append(row, halfEdge{to: id, w: w})
	}
	slices.SortFunc(row, func(a, b halfEdge) int { return cmp.Compare(a.to, b.to) })
	e.mergeRow(owner, row)
}

// MergeTableFrom merges src's stored table of owner into e — the
// in-process form of MergeTable the control channel uses when both
// endpoints live in the same simulation. An owner src does not know
// installs as an empty table.
func (e *Estimator) MergeTableFrom(src *Estimator, owner packet.NodeID) {
	if owner == e.self || owner < 0 || src == e {
		return
	}
	var incoming []halfEdge
	if int(owner) < src.n {
		incoming = src.rows[owner]
	}
	e.mergeRow(owner, incoming)
}

// mergeRow replaces owner's row with incoming (sorted by peer, not
// retained) by one linear diff: only entries that were added, removed
// or re-weighted re-derive their pair, and a no-op merge leaves the
// version — and therefore the shortest-path memo — untouched.
func (e *Estimator) mergeRow(owner packet.NodeID, incoming []halfEdge) {
	e.ensureNode(owner)
	e.markKnown(owner)
	inf := math.Inf(1)
	dst := e.rows[owner]
	changed := false
	i, j := 0, 0
	for i < len(dst) || j < len(incoming) {
		switch {
		case j == len(incoming) || (i < len(dst) && dst[i].to < incoming[j].to): // removed entry
			e.refreshPair(owner, dst[i].to, inf)
			changed = true
			i++
		case i == len(dst) || incoming[j].to < dst[i].to: // new entry
			e.refreshPair(owner, incoming[j].to, incoming[j].w)
			changed = true
			j++
		default:
			if dst[i].w != incoming[j].w {
				e.refreshPair(owner, incoming[j].to, incoming[j].w)
				changed = true
			}
			i++
			j++
		}
	}
	if changed {
		e.rows[owner] = append(dst[:0], incoming...)
		e.version++
	}
}

// KnownTables returns the ascending set of owners whose tables have
// been merged (plus self if it has observed anything). Exposed for
// control-plane delta encoding. The returned slice is live state and
// must not be modified or retained across estimator mutations.
func (e *Estimator) KnownTables() []packet.NodeID { return e.owners }

// Version counts matrix mutations. Consumers caching derived values
// (RAPID's delay-estimate cache) compare versions instead of
// subscribing to events.
func (e *Estimator) Version() uint64 { return e.version }

// Expected returns E(M_from,to): the expected time for node `from` to
// meet node `to` within at most h hops, computed as the minimum over
// paths of at most h edges of the sum of expected direct inter-meeting
// times (the paper's example: X meets Z via Y in expected time
// E(M_XY) + E(M_YZ)). Returns +Inf when `to` is unreachable within h
// hops of the current matrix.
func (e *Estimator) Expected(from, to packet.NodeID) float64 {
	if from == to {
		return 0
	}
	if from < 0 || int(from) >= e.n {
		return math.Inf(1)
	}
	if len(e.memo) < e.n {
		e.memo = append(e.memo, make([]memoRow, e.n-len(e.memo))...)
	}
	m := &e.memo[from]
	if m.ver != e.version+1 || len(m.dist) != e.n {
		m.dist = e.shortestWithin(from, m.dist)
		m.ver = e.version + 1
	}
	if to < 0 || int(to) >= len(m.dist) {
		return math.Inf(1)
	}
	return m.dist[to]
}

// shortestWithin runs h level-synchronous rounds of Bellman-Ford
// relaxation from src over the adjacency lists, yielding min-cost paths
// with at most h edges. Each round reads the previous round's
// distances, so a path can never accumulate more than h hops. The
// result is written into dst (grown if too short) and returned; the
// double-buffer partner is reused across calls.
func (e *Estimator) shortestWithin(src packet.NodeID, dst []float64) []float64 {
	inf := math.Inf(1)
	if cap(dst) < e.n {
		dst = make([]float64, e.n)
	}
	cur := dst[:e.n]
	if cap(e.distScratch) < e.n {
		e.distScratch = make([]float64, e.n)
	}
	next := e.distScratch[:e.n]
	for i := range cur {
		cur[i] = inf
	}
	cur[src] = 0
	for hop := 0; hop < e.hops; hop++ {
		copy(next, cur)
		improved := false
		for u, du := range cur {
			if math.IsInf(du, 1) {
				continue
			}
			for _, ed := range e.adj[u] {
				if d := du + ed.w; d < next[ed.to] {
					next[ed.to] = d
					improved = true
				}
			}
		}
		cur, next = next, cur
		if !improved {
			break
		}
	}
	cur[src] = 0
	// An odd number of swaps leaves `cur` pointing at the scratch
	// buffer; copy back so the memoized row survives the next query.
	if &cur[0] != &dst[0] {
		copy(dst, cur)
	}
	return dst[:e.n]
}

// Rate returns the meeting rate lambda = 1/E(M_from,to), or 0 when the
// pair is unreachable — the form used directly in Eq. 9.
func (e *Estimator) Rate(from, to packet.NodeID) float64 {
	d := e.Expected(from, to)
	if math.IsInf(d, 1) || d <= 0 {
		if d == 0 {
			return math.Inf(1)
		}
		return 0
	}
	return 1 / d
}
