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

// BenchmarkRapidAcceptFull times RAPID's Accept into a full 100 KB
// buffer of 1 KB replicas that carry replica metadata (the Table 4
// settings of the paper-sweep grid): every op ranks the ~100 buffered
// packets and evicts one. Setting up the arriving replica and its
// metadata is excluded from the timing.
func BenchmarkRapidAcceptFull(b *testing.B) {
	for _, m := range []Metric{AvgDelay, Deadline, MaxDelay} {
		b.Run(m.String(), func(b *testing.B) {
			const nodes = 20
			r := rand.New(rand.NewSource(1))
			ids := make([]packet.NodeID, nodes)
			for i := range ids {
				ids[i] = packet.NodeID(i)
			}
			net := routing.NewNetwork(sim.New(1), ids, New(m), routing.Config{
				BufferBytes:          100 << 10,
				Mode:                 routing.ControlInBand,
				MetaFraction:         -1,
				DefaultTransferBytes: 8 << 10,
			})
			net.Horizon = 900
			n0 := net.Node(0)
			for d := 1; d < nodes; d++ {
				if d%4 != 0 { // a quarter of the destinations unreachable
					n0.Ctl.Meet.ObserveMeeting(packet.NodeID(d), 30+r.Float64()*200)
				}
			}
			n0.Ctl.ObserveTransfer(6 << 10)
			delays := []float64{math.Inf(1), 60, 150, 400}
			next := packet.ID(0)
			replica := func(now float64) *buffer.Entry {
				p := &packet.Packet{
					ID: next, Src: packet.NodeID(1 + r.Intn(nodes-1)), Dst: packet.NodeID(1 + r.Intn(nodes-1)),
					Size: 1 << 10, Created: now - r.Float64()*100, Deadline: now + 600,
				}
				next++
				item := control.InventoryItem{ID: p.ID, Dst: p.Dst, Size: p.Size, Created: p.Created, Deadline: p.Deadline}
				for k := 1 + r.Intn(3); k > 0; k-- {
					item.Delay = delays[r.Intn(len(delays))]
					n0.Ctl.NoteReplica(item, packet.NodeID(1+r.Intn(nodes-1)), now)
				}
				return &buffer.Entry{P: p, ReceivedAt: now, Hops: 1}
			}
			now := 100.0
			for n0.Store.Free() >= 1<<10 {
				n0.Router.Accept(replica(now), 1, now)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				now += 0.01
				e := replica(now)
				b.StartTimer()
				if !n0.Router.Accept(e, 1, now) {
					b.Fatal("replica not accepted")
				}
			}
		})
	}
}
