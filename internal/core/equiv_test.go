package core

import (
	"math"
	"math/rand"
	"testing"

	"rapid/internal/buffer"
	"rapid/internal/control"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/sim"
)

// equivNet builds an n-node RAPID network whose node 0 knows meeting
// times to about half the destinations (the rest are unreachable, so
// their self delays are +Inf).
func equivNet(t testing.TB, metric Metric, n int, bufBytes int64, r *rand.Rand) *routing.Node {
	t.Helper()
	ids := make([]packet.NodeID, n)
	for i := range ids {
		ids[i] = packet.NodeID(i)
	}
	net := routing.NewNetwork(sim.New(1), ids, New(metric), routing.Config{
		BufferBytes:          bufBytes,
		Mode:                 routing.ControlInBand,
		MetaFraction:         -1,
		DefaultTransferBytes: 1000,
	})
	net.Horizon = 10000
	n0 := net.Node(0)
	for d := 1; d < n; d++ {
		if r.Intn(2) == 0 {
			n0.Ctl.Meet.ObserveMeeting(packet.NodeID(d), 20+r.Float64()*300)
		}
	}
	n0.Ctl.ObserveTransfer(1500)
	return n0
}

// randomPacket draws a packet to one of n destinations; coarse
// creation times make (Created, ID) ties within a queue common.
func randomPacket(r *rand.Rand, id packet.ID, n int) *packet.Packet {
	p := &packet.Packet{
		ID: id, Src: 0, Dst: packet.NodeID(1 + r.Intn(n-1)),
		Size: int64(200 + 100*r.Intn(8)), Created: float64(r.Intn(40)) * 10,
	}
	if r.Intn(3) > 0 {
		p.Deadline = p.Created + float64(r.Intn(80))*10
	}
	return p
}

// aheadByMap is the former map-backed queue index: b(i) per buffered
// packet ID, from each destination queue's prefix sums.
func aheadByMap(s *buffer.Store) map[packet.ID]int64 {
	ahead := map[packet.ID]int64{}
	s.EachQueue(func(_ packet.NodeID, q []*buffer.Entry) {
		var cum int64
		for _, e := range q {
			ahead[e.P.ID] = cum
			cum += e.P.Size
		}
	})
	return ahead
}

func TestBytesAheadMatchesMapIndex(t *testing.T) {
	empty := NewQueueIndex(buffer.New(0))
	if got := empty.BytesAhead(&packet.Packet{ID: 1, Dst: 3}); got != 0 {
		t.Errorf("empty index: BytesAhead = %d, want 0", got)
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		s := buffer.New(0)
		n := 2 + r.Intn(12)
		for i := 0; i < r.Intn(200); i++ {
			s.Insert(&buffer.Entry{P: randomPacket(r, packet.ID(i), n)}, nil)
		}
		idx := NewQueueIndex(s)
		want := aheadByMap(s)
		for _, e := range s.Entries() {
			if got := idx.BytesAhead(e.P); got != want[e.P.ID] {
				t.Fatalf("trial %d packet %d: BytesAhead = %d, map index %d", trial, e.P.ID, got, want[e.P.ID])
			}
		}
		// Absent packets: unknown IDs into another destination's
		// non-empty queue, into an empty queue and past the last
		// destination.
		for k := 0; k < 20; k++ {
			p := randomPacket(r, packet.ID(10000+k), n+3)
			if got := idx.BytesAhead(p); got != 0 {
				t.Fatalf("trial %d: absent packet %+v has BytesAhead %d", trial, p, got)
			}
		}
	}
}

// cachedEvictionUtility is the eviction key computed through the
// estimator's cached RateSum/ExpectedDelay path.
func cachedEvictionUtility(m Metric, est *Estimator, idx *QueueIndex, e *buffer.Entry, now, cap float64) float64 {
	switch m {
	case Deadline:
		if e.P.Deadline == 0 {
			return 0
		}
		rem := e.P.Deadline - now
		if rem <= 0 {
			return -1
		}
		rate, delivered := est.RateSum(e.P, idx)
		if delivered {
			return 1
		}
		return -math.Expm1(-rate * rem)
	case MaxDelay:
		return capDelay(est.ExpectedDelay(e.P, idx, now), cap)
	default:
		return -capDelay(est.ExpectedDelay(e.P, idx, now), cap)
	}
}

func TestEvictionUtilityMatchesCachedPath(t *testing.T) {
	delays := []float64{0, math.Inf(1), -5, 1e-3, 40, 250, 9e9}
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		for _, m := range []Metric{AvgDelay, Deadline, MaxDelay} {
			const n = 12
			n0 := equivNet(t, m, n, 0, r)
			rt := n0.Router.(*Router)
			for i := 0; i < 40+r.Intn(60); i++ {
				p := randomPacket(r, packet.ID(i), n)
				n0.Store.Insert(&buffer.Entry{P: p}, nil)
				item := control.InventoryItem{ID: p.ID, Dst: p.Dst, Size: p.Size, Created: p.Created, Deadline: p.Deadline}
				for k := r.Intn(4); k > 0; k-- {
					// Remote holders, the node itself and the
					// destination all appear; only remote ones count.
					item.Delay = delays[r.Intn(len(delays))]
					n0.Ctl.NoteReplica(item, packet.NodeID(r.Intn(n)), float64(r.Intn(100)))
				}
			}
			idx := rt.ownIndex()
			now := float64(200 + r.Intn(400))
			cap := delayCap(n0.Net.Horizon)
			for _, e := range n0.Store.Entries() {
				got := evictionUtility(m, rt.est, idx, e, now, cap)
				want := cachedEvictionUtility(m, rt.est, idx, e, now, cap)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d %v packet %d: cache-free %v, cached %v", trial, m, e.P.ID, got, want)
				}
			}
		}
	}
}

func TestOwnIndexRebuildMatchesFreshIndex(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const n = 10
	n0 := equivNet(t, AvgDelay, n, 0, r)
	rt := n0.Router.(*Router)
	next := packet.ID(0)
	for round := 0; round < 60; round++ {
		// Grow and shrink the buffer, so queues both lengthen and empty
		// out between rebuilds.
		for k := r.Intn(8); k > 0; k-- {
			n0.Store.Insert(&buffer.Entry{P: randomPacket(r, next, n)}, nil)
			next++
		}
		for k := r.Intn(8); k > 0 && n0.Store.Len() > 0; k-- {
			es := n0.Store.Entries()
			n0.Store.Remove(es[r.Intn(len(es))].P.ID)
		}
		if r.Intn(4) == 0 {
			n0.Ctl.Meet.ObserveMeeting(packet.NodeID(1+r.Intn(n-1)), float64(400+round*10))
		}
		idx := rt.ownIndex()
		if idx != &rt.ownIdx {
			t.Fatal("ownIndex did not return the router's reused index")
		}
		fresh := NewQueueIndex(n0.Store)
		freshEst := NewEstimator(n0)
		now := float64(500 + round*10)
		for _, e := range n0.Store.Entries() {
			p := e.P
			if got, want := idx.BytesAhead(p), fresh.BytesAhead(p); got != want {
				t.Fatalf("round %d packet %d: BytesAhead %d, fresh %d", round, p.ID, got, want)
			}
			if got, want := rt.est.SelfDelay(p, idx), freshEst.SelfDelay(p, fresh); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d packet %d: SelfDelay %v, fresh %v", round, p.ID, got, want)
			}
			if got, want := rt.est.ExpectedDelay(p, idx, now), freshEst.ExpectedDelay(p, fresh, now); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d packet %d: ExpectedDelay %v, fresh %v", round, p.ID, got, want)
			}
		}
		for d := 0; d < n+2; d++ {
			p := &packet.Packet{ID: 1 << 40, Dst: packet.NodeID(d), Created: float64(round)}
			if got, want := idx.HypoBytesAhead(p), fresh.HypoBytesAhead(p); got != want {
				t.Fatalf("round %d dst %d: HypoBytesAhead %d, fresh %d", round, d, got, want)
			}
		}
	}
}
