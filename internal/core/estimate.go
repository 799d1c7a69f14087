// Package core implements RAPID — the paper's primary contribution: a
// utility-driven DTN routing protocol that translates an
// administrator-specified routing metric (average delay, missed
// deadlines, or maximum delay) into per-packet utilities, and
// replicates packets in decreasing order of marginal utility per byte
// (§3), estimating delivery delays with the Estimate-Delay algorithm
// over control-plane metadata (§4).
package core

import (
	"math"
	"slices"
	"sort"

	"rapid/internal/buffer"
	"rapid/internal/packet"
	"rapid/internal/routing"
)

// QueueIndex precomputes, for one node's buffer, each packet's position
// in its per-destination delivery queue: b(i), the total size of
// packets that precede i (Fig. 1 of the paper). Queues are ordered
// oldest-first — "sorted in decreasing order of T(i) or time since
// creation — the order in which they would be delivered directly"
// (§4.1).
type QueueIndex struct {
	// byDst is indexed by the run's dense destination IDs; each queue
	// is in (Created, ID) order, so a packet's entry is found by binary
	// search and no per-packet map is needed.
	byDst [][]qent
}

// qent is one position in a destination queue, with the cumulative
// bytes of everything ahead of it.
type qent struct {
	created float64
	id      packet.ID
	size    int64
	cum     int64
}

// NewQueueIndex builds the index for a store's current contents. The
// store maintains per-destination delivery-ordered queues, so the build
// is a linear prefix-sum pass — no scan-and-sort of the whole buffer.
func NewQueueIndex(store *buffer.Store) *QueueIndex {
	idx := &QueueIndex{}
	idx.rebuild(store)
	return idx
}

// rebuild re-indexes the store's current contents in place, reusing
// the per-destination slices of the previous build.
func (q *QueueIndex) rebuild(store *buffer.Store) {
	for d := range q.byDst {
		q.byDst[d] = q.byDst[d][:0]
	}
	store.EachQueue(func(dst packet.NodeID, es []*buffer.Entry) {
		for len(q.byDst) <= int(dst) {
			q.byDst = append(q.byDst, nil)
		}
		ents := slices.Grow(q.byDst[dst][:0], len(es))
		var cum int64
		for _, e := range es {
			ents = append(ents, qent{created: e.P.Created, id: e.P.ID, size: e.P.Size, cum: cum})
			cum += e.P.Size
		}
		q.byDst[dst] = ents
	})
}

// find returns p's destination queue and the position of the first
// entry not older than p in it. O(log q).
func (q *QueueIndex) find(p *packet.Packet) ([]qent, int) {
	if p.Dst < 0 || int(p.Dst) >= len(q.byDst) {
		return nil, 0
	}
	ents := q.byDst[p.Dst]
	i := sort.Search(len(ents), func(j int) bool {
		e := ents[j]
		if e.created != p.Created {
			return e.created > p.Created
		}
		return e.id >= p.ID
	})
	return ents, i
}

// BytesAhead returns b(i) for a packet in the indexed buffer, or 0 for
// a packet the index does not hold (for hypothetical placements use
// HypoBytesAhead).
func (q *QueueIndex) BytesAhead(p *packet.Packet) int64 {
	if ents, i := q.find(p); i < len(ents) && ents[i].id == p.ID {
		return ents[i].cum
	}
	return 0
}

// HypoBytesAhead computes b(i) as if p were inserted into the indexed
// buffer: the bytes of already-buffered packets to the same destination
// that are older than p. Used when hypothesizing a replica at the
// contact peer (the peer's queue as just announced). O(log q) per
// query.
func (q *QueueIndex) HypoBytesAhead(p *packet.Packet) int64 {
	ents, i := q.find(p)
	// Everything before i is strictly older; if p itself is present at
	// position i, its own bytes are not ahead of it.
	if i < len(ents) && ents[i].id == p.ID {
		return ents[i].cum
	}
	if i == 0 {
		return 0
	}
	return ents[i-1].cum + ents[i-1].size
}

// Estimator implements Estimate-Delay (§4.1) from one node's local
// view: its own buffer, its control state (replica metadata, average
// transfer sizes), and its meeting-time matrix.
//
// Estimates are cached per packet and invalidated by comparing version
// stamps of the inputs (buffer contents, meeting matrix, transfer
// average, replica metadata) instead of recomputing at every contact:
// a node's estimates only move when one of those inputs moves, which
// happens at its own meetings and ack/replica events — not with global
// simulation time.
type Estimator struct {
	node *routing.Node

	// Input stamps captured at the last cache epoch.
	storeVer, meetVer, metaVer uint64
	xferN                      int
	// selfEpoch tags SelfDelay entries (inputs: buffer position, meeting
	// matrix, transfer average); rateEpoch additionally covers replica
	// metadata and so moves at least as often.
	selfEpoch, rateEpoch uint64

	selfCache map[packet.ID]cachedDelay
	rateCache map[packet.ID]cachedRate
}

// cachedDelay is one memoized SelfDelay value. The index pointer guards
// against callers probing a hypothetical queue index (tests, snapshot
// utilities) polluting entries computed against the live one.
type cachedDelay struct {
	epoch uint64
	idx   *QueueIndex
	val   float64
}

// cachedRate is one memoized RateSum result.
type cachedRate struct {
	epoch     uint64
	idx       *QueueIndex
	rate      float64
	delivered bool
}

// NewEstimator returns an estimator bound to a node.
func NewEstimator(n *routing.Node) *Estimator {
	return &Estimator{
		node:      n,
		selfCache: make(map[packet.ID]cachedDelay),
		rateCache: make(map[packet.ID]cachedRate),
	}
}

// sync advances the cache epochs if any estimation input changed since
// the last call.
func (est *Estimator) sync() {
	sv := est.node.Store.Version()
	mv := est.node.Ctl.Meet.Version()
	xn := est.node.Ctl.TransferObservations()
	cv := est.node.Ctl.MetaVersion()
	if sv != est.storeVer || mv != est.meetVer || xn != est.xferN {
		est.storeVer, est.meetVer, est.xferN = sv, mv, xn
		est.metaVer = cv
		est.selfEpoch++
		est.rateEpoch++
		// Every cached entry is now stale; dropping them bounds the
		// maps at the live-packet population and releases the old
		// QueueIndex the entries pin.
		clear(est.selfCache)
		clear(est.rateCache)
		return
	}
	if cv != est.metaVer {
		est.metaVer = cv
		est.rateEpoch++
		clear(est.rateCache)
	}
}

// meetingsNeeded returns n_j(i), the number of meetings with the
// destination needed to drain the queue ahead of i and send i itself.
//
// The paper states n_j(i) = ⌈b_j(i)/B_j⌉, which is 0 for the
// head-of-queue packet and would make Eq. 8's λ/n division by zero; we
// use ⌈(b_j(i)+s_i)/B_j⌉ clamped to at least 1, which agrees with the
// paper for all non-head positions when sizes divide evenly and fixes
// the degenerate case (see DESIGN.md §7).
func meetingsNeeded(bytesAhead, size int64, avgTransfer float64) float64 {
	if avgTransfer <= 0 {
		return 1
	}
	n := math.Ceil(float64(bytesAhead+size) / avgTransfer)
	if n < 1 {
		n = 1
	}
	return n
}

// SelfDelay estimates the node's own direct-delivery time for packet p
// given its current queue position: E(M_XZ) · n_X(i) (the Eq. 9 terms).
// Returns +Inf when the destination is unreachable within the h-hop
// matrix.
func (est *Estimator) SelfDelay(p *packet.Packet, idx *QueueIndex) float64 {
	est.sync()
	if c, ok := est.selfCache[p.ID]; ok && c.epoch == est.selfEpoch && c.idx == idx {
		return c.val
	}
	d := est.selfDelay(p, idx)
	est.selfCache[p.ID] = cachedDelay{epoch: est.selfEpoch, idx: idx, val: d}
	return d
}

// selfDelay is the uncached computation behind SelfDelay.
func (est *Estimator) selfDelay(p *packet.Packet, idx *QueueIndex) float64 {
	em := est.node.Ctl.Meet.Expected(est.node.ID, p.Dst)
	if math.IsInf(em, 1) {
		return em
	}
	b := est.node.Ctl.AvgTransferBytes(est.node.Net.Cfg.DefaultTransferBytes)
	return em * meetingsNeeded(idx.BytesAhead(p), p.Size, b)
}

// PeerDelay hypothesizes the direct-delivery time of a replica of p
// placed at peer right now, using peer's just-announced buffer state
// (pre-indexed in peerIdx) and the local matrix's estimate of E(M_YZ).
func (est *Estimator) PeerDelay(peer *routing.Node, peerIdx *QueueIndex, p *packet.Packet) float64 {
	em := est.node.Ctl.Meet.Expected(peer.ID, p.Dst)
	if math.IsInf(em, 1) {
		return math.Inf(1)
	}
	b := est.node.Ctl.AvgTransferOf(peer.ID, est.node.Net.Cfg.DefaultTransferBytes)
	n := meetingsNeeded(peerIdx.HypoBytesAhead(p), p.Size, b)
	return em * n
}

// RateSum returns Σ_j 1/d_j over p's replica delay estimates — the
// combined exponential delivery rate of Eq. 7/8 — without allocating.
// delivered reports a zero-delay replica (packet effectively at its
// destination). It is evaluated once per buffered packet per contact.
func (est *Estimator) RateSum(p *packet.Packet, idx *QueueIndex) (rate float64, delivered bool) {
	est.sync()
	if c, ok := est.rateCache[p.ID]; ok && c.epoch == est.rateEpoch && c.idx == idx {
		return c.rate, c.delivered
	}
	rate, delivered = est.rateSum(p, est.SelfDelay(p, idx))
	est.rateCache[p.ID] = cachedRate{
		epoch: est.rateEpoch, idx: idx, rate: rate, delivered: delivered,
	}
	return rate, delivered
}

// rateSum is the uncached computation behind RateSum, given the node's
// own direct-delivery delay d for p.
func (est *Estimator) rateSum(p *packet.Packet, d float64) (rate float64, delivered bool) {
	if d == 0 {
		return 0, true
	}
	if d > 0 && !math.IsInf(d, 1) {
		rate += 1 / d
	}
	for _, rep := range est.node.Ctl.Replicas(p.ID) {
		if rep.Holder == est.node.ID || rep.Holder == p.Dst {
			continue
		}
		if rep.Delay == 0 {
			return 0, true
		}
		if rep.Delay > 0 && !math.IsInf(rep.Delay, 1) {
			rate += 1 / rep.Delay
		}
	}
	return rate, false
}

// remainingDelay turns a combined delivery rate into A(i) (Eq. 6/8).
func remainingDelay(rate float64, delivered bool) float64 {
	if delivered {
		return 0
	}
	if rate <= 0 {
		return math.Inf(1)
	}
	return 1 / rate
}

// RemainingDelay returns A(i) = E[a(i)], the expected remaining time to
// deliver p by any replica (Eq. 6/8).
func (est *Estimator) RemainingDelay(p *packet.Packet, idx *QueueIndex) float64 {
	return remainingDelay(est.RateSum(p, idx))
}

// ExpectedDelay returns D(i) = T(i) + A(i) (Table 2).
func (est *Estimator) ExpectedDelay(p *packet.Packet, idx *QueueIndex, now float64) float64 {
	return p.Age(now) + est.RemainingDelay(p, idx)
}
