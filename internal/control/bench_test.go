package control

import (
	"math/rand"
	"testing"

	"rapid/internal/packet"
)

// BenchmarkControlExchangeHistory times one exchange between two states
// with a long history: thousands of acks (half already known to the
// peer), a few thousand replica-log entries of which a tenth are
// relayed under older stamps, so metaLog is partly out of time order,
// and 100-item inventories. Each op rewinds both sides' last-exchange
// time, so every exchange is a first meeting in a long while and its
// delta spans the whole history.
func BenchmarkControlExchangeHistory(b *testing.B) {
	const (
		nodes   = 20
		acks    = 4000
		packets = 3000
		invLen  = 100
	)
	r := rand.New(rand.NewSource(1))
	a, c := NewState(0, 3, nil), NewState(1, 3, nil)
	now := 0.0
	for i := 0; i < acks; i++ {
		now += 0.1
		id := packet.ID(100000 + i)
		a.LearnAck(id, now)
		if i%2 == 0 {
			c.LearnAck(id, now)
		}
	}
	item := func(id packet.ID) InventoryItem {
		return InventoryItem{
			ID: id, Dst: packet.NodeID(2 + int(id)%(nodes-2)), Size: 1024,
			Created: float64(id) / 10, Deadline: 5000, Delay: 50 + r.Float64()*300,
		}
	}
	for i := 0; i < packets; i++ {
		now += 0.1
		at := now
		if i%10 == 0 {
			at = now - 50 - r.Float64()*100 // a relayed, older record
		}
		s := a
		if i%3 == 0 {
			s = c
		}
		s.NoteReplica(item(packet.ID(r.Intn(packets))), packet.NodeID(2+r.Intn(nodes-2)), at)
	}
	inv := func() []InventoryItem {
		out := make([]InventoryItem, invLen)
		for k := range out {
			out[k] = item(packet.ID(r.Intn(packets)))
		}
		return out
	}
	invA, invC := inv(), inv()
	opts := Options{MaxBytes: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1
		a.lastExchange = growFloat(a.lastExchange, c.self, 0)
		c.lastExchange = growFloat(c.lastExchange, a.self, 0)
		a.lastExchange[c.self], c.lastExchange[a.self] = 1, 1
		Exchange(a, c, invA, invC, now, opts)
	}
}
