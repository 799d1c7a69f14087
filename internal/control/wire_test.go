package control

import (
	"math/rand"
	"testing"

	"rapid/internal/packet"
)

// TestWireAccountingPinned replays a fixed multi-contact exchange
// sequence — gossip over a dozen nodes with inventories, acks and one
// byte-capped leg — and pins the summed wire cost and table count.
// Meeting-table pricing (TableHeaderBytes + entries×MeetEntryBytes,
// delta by freshness) feeds every figure's overhead numbers, so the
// totals must not move when the estimator's storage changes.
func TestWireAccountingPinned(t *testing.T) {
	const nodes = 12
	r := rand.New(rand.NewSource(11))
	states := make([]*State, nodes)
	for i := range states {
		states[i] = NewState(packet.NodeID(i), 3, nil)
	}
	var total Result
	truncated := 0
	now := 0.0
	for c := 0; c < 400; c++ {
		now += 1 + r.Float64()*30
		i := r.Intn(nodes)
		j := r.Intn(nodes - 1)
		if j >= i {
			j++
		}
		inv := func(holder int) []InventoryItem {
			items := make([]InventoryItem, r.Intn(4))
			for k := range items {
				items[k] = InventoryItem{
					ID:  packet.ID(holder*1000 + r.Intn(50)),
					Dst: packet.NodeID(r.Intn(nodes)), Size: 1024,
					Created: now - 5, Deadline: now + 500, Delay: 100 + r.Float64()*50,
				}
			}
			return items
		}
		invA, invB := inv(i), inv(j)
		if r.Intn(10) == 0 {
			states[i].LearnAck(packet.ID(r.Intn(nodes*1000)), now)
		}
		opts := Options{MaxBytes: -1}
		if c%7 == 3 {
			opts.MaxBytes = int64(200 + 150*(c%5))
		}
		res := Exchange(states[i], states[j], invA, invB, now, opts)
		total.Bytes += res.Bytes
		total.Tables += res.Tables
		total.Acks += res.Acks
		total.Inventory += res.Inventory
		total.Replicas += res.Replicas
		if res.Truncated {
			truncated++
		}
	}
	known := 0
	for _, s := range states {
		known += len(s.Meet.KnownTables())
	}
	t.Logf("bytes=%d tables=%d acks=%d inventory=%d replicas=%d truncated=%d known=%d",
		total.Bytes, total.Tables, total.Acks, total.Inventory, total.Replicas, truncated, known)
	want := Result{Bytes: 245481, Tables: 3426, Acks: 518, Inventory: 1194}
	if total != want {
		t.Errorf("wire totals %+v, want %+v", total, want)
	}
	if truncated != 36 || known != 144 {
		t.Errorf("truncated=%d known=%d, want 36 and 144", truncated, known)
	}
}
