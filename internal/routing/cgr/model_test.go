package cgr

import (
	"container/heap"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rapid/internal/packet"
)

// refPlanner is the map-based reference for Planner.plan: the same
// contact graph and feasibility rules held in per-node maps, with a
// chain-walking ban lookup, a container/heap frontier and a scan over
// every window of the settled node. It reads windows (residuals
// included) and capFor from the planner under test and copies
// everything node-indexed into maps of its own.
type refPlanner struct {
	pl     *Planner
	byNode map[packet.NodeID][]int
	resv   map[packet.NodeID][]reservation
}

func newRefPlanner(pl *Planner) *refPlanner {
	ref := &refPlanner{
		pl:     pl,
		byNode: map[packet.NodeID][]int{},
		resv:   map[packet.NodeID][]reservation{},
	}
	for i, w := range pl.windows {
		ref.byNode[w.a] = append(ref.byNode[w.a], i)
		ref.byNode[w.b] = append(ref.byNode[w.b], i)
	}
	for _, list := range ref.byNode {
		sort.Slice(list, func(i, j int) bool {
			wi, wj := &pl.windows[list[i]], &pl.windows[list[j]]
			if wi.start != wj.start {
				return wi.start < wj.start
			}
			return list[i] < list[j]
		})
	}
	for node, list := range pl.resv {
		if len(list) > 0 {
			ref.resv[packet.NodeID(node)] = slices.Clone(list)
		}
	}
	return ref
}

// refBan is banSet with map-valued levels.
type refBan struct {
	parent *refBan
	wins   map[int]bool
	nodes  map[packet.NodeID]bool
}

func toRefBan(b *banSet) *refBan {
	if b == nil {
		return nil
	}
	rb := &refBan{parent: toRefBan(b.parent), wins: map[int]bool{}, nodes: map[packet.NodeID]bool{}}
	for _, wi := range b.wins {
		rb.wins[wi] = true
	}
	for _, n := range b.nodes {
		rb.nodes[n] = true
	}
	return rb
}

func (b *refBan) winBanned(wi int) bool {
	for s := b; s != nil; s = s.parent {
		if s.wins[wi] {
			return true
		}
	}
	return false
}

func (b *refBan) nodeBanned(n packet.NodeID) bool {
	for s := b; s != nil; s = s.parent {
		if s.nodes[n] {
			return true
		}
	}
	return false
}

type refItem struct {
	node packet.NodeID
	at   float64
	rank int
}

type refPQ []refItem

func (q refPQ) Len() int { return len(q) }
func (q refPQ) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].rank != q[j].rank {
		return q[i].rank < q[j].rank
	}
	return q[i].node < q[j].node
}
func (q refPQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x any)   { *q = append(*q, x.(refItem)) }
func (q *refPQ) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

func (ref *refPlanner) fitsBuffer(node packet.NodeID, t float64, p *packet.Packet) bool {
	if node == p.Dst {
		return true
	}
	capacity := ref.pl.capFor(node)
	if capacity <= 0 {
		return true
	}
	var sum int64
	for _, r := range ref.resv[node] {
		if r.id != p.ID && r.from <= t && t < r.to {
			sum += r.bytes
		}
	}
	return sum+p.Size <= capacity
}

// plan is the reference Dijkstra. ok is false when the destination is
// unreachable; from == p.Dst yields ok with no hops.
func (ref *refPlanner) plan(p *packet.Packet, from packet.NodeID, now float64, r0 int, ban *refBan) (hops []hop, ok bool) {
	dist := map[packet.NodeID]float64{from: now}
	rank := map[packet.NodeID]int{from: r0}
	prev := map[packet.NodeID]hop{}
	done := map[packet.NodeID]bool{}
	frontier := refPQ{{node: from, at: now, rank: r0}}
	for len(frontier) > 0 {
		it := heap.Pop(&frontier).(refItem)
		u := it.node
		if done[u] || it.at > dist[u] || (it.at == dist[u] && it.rank > rank[u]) {
			continue
		}
		done[u] = true
		if u == p.Dst {
			break
		}
		t, tr := dist[u], rank[u]
		for _, wi := range ref.byNode[u] {
			if ban.winBanned(wi) {
				continue
			}
			w := &ref.pl.windows[wi]
			v := w.b
			if v == u {
				v = w.a
			}
			if done[v] || w.residual < p.Size {
				continue
			}
			if v != p.Dst && ban.nodeBanned(v) {
				continue
			}
			var at float64
			var ar int
			if w.rate == 0 {
				if w.start < t-timeEps || (sameInstant(w.start, t) && wi <= tr) {
					continue
				}
				at, ar = w.start, wi
			} else {
				if w.start < t-timeEps || (sameInstant(w.start, t) && wi <= tr) {
					continue
				}
				at = w.start + float64(w.cap0-w.residual+p.Size)/w.rate
				if at >= w.end-timeEps {
					continue
				}
				ar = rankStreamed
			}
			if !ref.fitsBuffer(v, at, p) {
				continue
			}
			if cur, seen := dist[v]; !seen || at < cur || (at == cur && ar < rank[v]) {
				dist[v] = at
				rank[v] = ar
				prev[v] = hop{win: wi, from: u, to: v, depart: w.start, arrive: at}
				heap.Push(&frontier, refItem{node: v, at: at, rank: ar})
			}
		}
	}
	if !done[p.Dst] {
		return nil, false
	}
	for node := p.Dst; node != from; {
		h := prev[node]
		hops = append(hops, h)
		node = h.from
	}
	slices.Reverse(hops)
	return hops, true
}

// jitter perturbs an instant by a random amount around timeEps, so
// same-instant ties fall on both sides of the tolerance.
func jitter(rng *rand.Rand, t float64) float64 {
	offs := []float64{0, 0, 0, timeEps / 2, -timeEps / 2, timeEps, -timeEps, 2 * timeEps, -2 * timeEps}
	return t + offs[rng.Intn(len(offs))]
}

// randomPlanner builds a hand planner over n nodes mixing point
// meetings and windowed contacts on a coarse time grid (many
// same-instant windows), with partly consumed residuals and finite
// per-node buffers.
func randomPlanner(rng *rand.Rand, n, slots int) *Planner {
	pl := newPlanner(DefaultPolicy())
	pl.primed = true
	caps := make([]int64, n)
	for i := range caps {
		caps[i] = []int64{0, 0, 1024, 2048, 4096}[rng.Intn(5)]
	}
	pl.capFor = func(id packet.NodeID) int64 {
		if int(id) < len(caps) {
			return caps[id]
		}
		return 0
	}
	for k := 5 + rng.Intn(8*n); k > 0; k-- {
		a := packet.NodeID(rng.Intn(n))
		b := packet.NodeID(rng.Intn(n - 1))
		if b >= a {
			b++
		}
		start := jitter(rng, float64(5*rng.Intn(slots)))
		w := window{a: a, b: b, start: start, end: start}
		if rng.Intn(2) == 0 {
			w.cap0 = []int64{0, 512, 1024, 2048, 4096}[rng.Intn(5)]
		} else {
			w.rate = []float64{100, 256, 512}[rng.Intn(3)]
			w.end = start + []float64{2, 5, 10, 30}[rng.Intn(4)]
			w.cap0 = int64(w.rate * (w.end - w.start))
		}
		w.residual = w.cap0
		if w.cap0 > 0 && rng.Intn(3) == 0 {
			w.residual -= rng.Int63n(w.cap0 + 1)
		}
		pl.windows = append(pl.windows, w)
	}
	pl.index()
	// Live reservations not tied to any route, some of them held by
	// the packet IDs the queries use (own reservations never count).
	for k := rng.Intn(12); k > 0; k-- {
		from := float64(5 * rng.Intn(10))
		node := rng.Intn(len(pl.resv))
		pl.resv[node] = append(pl.resv[node], reservation{
			id: packet.ID(1 + rng.Intn(6)), from: from, to: from + float64(1+rng.Intn(20)),
			bytes: []int64{256, 1024, 2048}[rng.Intn(3)],
		})
	}
	return pl
}

// randomBan builds a parent chain of up to three levels with duplicate
// window and node entries, occasionally naming the destination or an
// ID outside the graph.
func randomBan(rng *rand.Rand, pl *Planner, n int) *banSet {
	var b *banSet
	for lvl := rng.Intn(4); lvl > 0; lvl-- {
		s := &banSet{parent: b}
		for k := rng.Intn(5); k > 0; k-- {
			wi := rng.Intn(len(pl.windows))
			s.wins = append(s.wins, wi, wi)
		}
		for k := rng.Intn(4); k > 0; k-- {
			node := packet.NodeID(rng.Intn(n + 2))
			s.nodes = append(s.nodes, node)
			if rng.Intn(2) == 0 {
				s.nodes = append(s.nodes, node)
			}
		}
		b = s
	}
	return b
}

// TestPlanMatchesReferenceModel drives random hand planners through
// random plan queries — bans, custody ranks, instants on and around
// window starts, origins and destinations outside the graph — and
// commits some of the plans so later queries see reservations and
// consumed residuals. Every query must return exactly the reference's
// hop sequence, or nil on both sides.
func TestPlanMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	routed := 0
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(7)
		// Few time slots pack many same-instant windows together, so
		// the rank order of equal-arrival labels decides routes.
		slots := []int{2, 4, 10}[rng.Intn(3)]
		pl := randomPlanner(rng, n, slots)
		for q := 0; q < 60; q++ {
			p := &packet.Packet{
				ID:   packet.ID(1 + rng.Intn(6)),
				Dst:  packet.NodeID(rng.Intn(n + 1)),
				Size: []int64{256, 512, 1024, 1500}[rng.Intn(4)],
			}
			from := packet.NodeID(rng.Intn(n + 1))
			now := jitter(rng, float64(5*rng.Intn(slots)))
			r0 := []int{rankGenerated, rankStreamed, rng.Intn(len(pl.windows)) - 1}[rng.Intn(3)]
			ban := randomBan(rng, pl, n)

			want, ok := newRefPlanner(pl).plan(p, from, now, r0, toRefBan(ban))
			got := pl.plan(p, from, now, r0, ban)
			if (got != nil) != ok || !slices.Equal(got, want) {
				t.Fatalf("trial %d query %d: plan(pkt %d→%d size %d, from %d, now %v, r0 %d) = %+v, reference %+v (ok=%v)",
					trial, q, p.ID, p.Dst, p.Size, from, now, r0, got, want, ok)
			}
			if len(got) > 0 {
				routed++
				if rng.Intn(3) == 0 {
					pl.adopt(p, got, from)
				}
			}
		}
	}
	if routed < 1000 {
		t.Fatalf("only %d queries found a route — the generator is too sparse to exercise the planner", routed)
	}
}
