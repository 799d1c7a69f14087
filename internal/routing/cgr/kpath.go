package cgr

import (
	"math"

	"rapid/internal/packet"
)

// planBest is the policy-aware planning entry: the earliest-arrival
// path under the packet's copy-disjointness bans, widened across up to
// KPaths Yen alternates when the policy asks for it. With KPaths == 1
// (and no live sibling routes) it is a bare plan() call — the classic
// single-path arm never pays for the search.
func (pl *Planner) planBest(p *packet.Packet, from packet.NodeID, now float64, r0 int) []hop {
	ban := banFor(pl.routes[p.ID])
	best := pl.plan(p, from, now, r0, ban)
	if best == nil || pl.pol.KPaths <= 1 {
		return best
	}
	cands := pl.kAlternates(p, from, now, r0, ban, best)
	return pl.selectRoute(cands, now)
}

// kAlternates runs a Yen-style deviation search for up to KPaths
// loopless alternate contact paths. For each hop index i of the most
// recently accepted path, the root prefix hops[:i] is fixed and a spur
// is planned from the deviation node with the root's windows and nodes
// banned (loop prevention) plus, for every accepted path sharing the
// same window prefix, its window at position i (forcing a genuinely
// different continuation). Spur searches run under the full feasibility
// rules of plan() — residual capacity, snapshot ordering, buffer
// headroom — so every alternate returned is committable as-is. The
// result is ordered by acceptance (earliest arrival first) and always
// starts with best.
func (pl *Planner) kAlternates(p *packet.Packet, from packet.NodeID, now float64, r0 int, base *banSet, best []hop) [][]hop {
	accepted := [][]hop{best}
	var pool [][]hop
	// One spur ban set serves every deviation: plan() flattens it on
	// entry and keeps no reference, so its slices are refilled in place.
	ban := &banSet{parent: base}
	for len(accepted) < pl.pol.KPaths {
		cur := accepted[len(accepted)-1]
		for i := 0; i < len(cur); i++ {
			spurFrom, spurT, spurRank := from, now, r0
			if i > 0 {
				h := cur[i-1]
				spurFrom, spurT = h.to, h.arrive
				// The spur's custody rank at the deviation node mirrors
				// how the prefix would really arrive there: a point
				// meeting stamps its window index, a streamed window
				// completes after every pre-scheduled same-instant event.
				if pl.windows[h.win].rate == 0 {
					spurRank = h.win
				} else {
					spurRank = rankStreamed
				}
			}
			ban.wins = ban.wins[:0]
			ban.nodes = append(ban.nodes[:0], from)
			for j := 0; j < i; j++ {
				ban.wins = append(ban.wins, cur[j].win)
				ban.nodes = append(ban.nodes, cur[j].to)
			}
			for _, q := range accepted {
				if len(q) > i && samePrefix(q, cur, i) {
					ban.wins = append(ban.wins, q[i].win)
				}
			}
			spur := pl.plan(p, spurFrom, spurT, spurRank, ban)
			if spur == nil {
				continue
			}
			full := append(cur[:i:i], spur...)
			if containsPath(accepted, full) || containsPath(pool, full) {
				continue
			}
			pool = append(pool, full)
		}
		// Accept the cheapest pooled candidate (arrival, then hop
		// count, then window sequence — all deterministic).
		pick := -1
		for j, c := range pool {
			if pick < 0 || betterCand(c, pool[pick]) {
				pick = j
			}
		}
		if pick < 0 {
			break
		}
		accepted = append(accepted, pool[pick])
		pool = append(pool[:pick], pool[pick+1:]...)
	}
	return accepted
}

// arrival returns a planned path's delivery instant.
func arrival(hops []hop) float64 { return hops[len(hops)-1].arrive }

// samePrefix reports whether two paths traverse identical windows up
// to (excluding) hop index i.
func samePrefix(a, b []hop, i int) bool {
	for j := 0; j < i; j++ {
		if a[j].win != b[j].win {
			return false
		}
	}
	return true
}

// containsPath reports whether some path in ps traverses exactly the
// window sequence of x — a path's identity for deduplication.
func containsPath(ps [][]hop, x []hop) bool {
	for _, q := range ps {
		if len(q) == len(x) && samePrefix(q, x, len(x)) {
			return true
		}
	}
	return false
}

// betterCand orders Yen candidates: earlier arrival, then fewer hops,
// then lexicographically smaller window sequence.
func betterCand(a, b []hop) bool {
	if arrival(a) != arrival(b) {
		return arrival(a) < arrival(b)
	}
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i].win != b[i].win {
			return a[i].win < b[i].win
		}
	}
	return false
}

// selectRoute picks the path to commit from the Yen alternates: among
// candidates whose in-flight time is within (1+DelaySlack)× the
// earliest one's, the widest — largest bottleneck residual — wins; ties
// keep the earlier-accepted (earlier-arriving) candidate. Routing onto
// the widest feasible alternate trades a bounded delay increase for
// congestion headroom on the contested windows.
func (pl *Planner) selectRoute(cands [][]hop, now float64) []hop {
	best := cands[0]
	limit := arrival(best) + pl.pol.DelaySlack*(arrival(best)-now)
	pick, pickWidth := best, pl.width(best)
	for _, c := range cands[1:] {
		if arrival(c) > limit+timeEps {
			continue
		}
		if w := pl.width(c); w > pickWidth {
			pick, pickWidth = c, w
		}
	}
	return pick
}

// width is a path's bottleneck residual capacity — the tightest window
// it traverses, before its own commitment.
func (pl *Planner) width(hops []hop) int64 {
	w := int64(math.MaxInt64)
	for _, h := range hops {
		if res := pl.windows[h.win].residual; res < w {
			w = res
		}
	}
	return w
}
