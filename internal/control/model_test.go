package control

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rapid/internal/packet"
)

// This file checks Exchange against a reference model: the exchange as
// it was written before the delta became inventory-driven. The model
// dedups every metaLog event since the last exchange through a seen
// map and then keeps only the receiver's inventory packets, sorts a
// sender's new acks before dropping those the receiver holds, and
// counts inventory destinations in a map. Both run side by side on two
// copies of the same random history and must agree on every Result,
// ack set, replica list and changelog.

// refExchange is the reference model of Exchange for non-global
// states. It shares the state mutators (LearnAck, NoteReplica,
// spendTable, finishExchange) with the real exchange.
func refExchange(a, b *State, invA, invB []InventoryItem, now float64, opts Options) Result {
	var res Result
	a.Meet.ObserveMeeting(b.self, now)
	b.Meet.ObserveMeeting(a.self, now)

	budget := opts.MaxBytes
	unlimited := budget < 0
	spend := func(n int64) bool {
		if unlimited {
			res.Bytes += n
			return true
		}
		if budget < n {
			res.Truncated = true
			return false
		}
		budget -= n
		res.Bytes += n
		return true
	}

	sinceA := a.lastExchangeWith(b.self)
	sinceB := b.lastExchangeWith(a.self)
	for _, pair := range []struct {
		from, to *State
		since    float64
	}{{a, b, sinceA}, {b, a, sinceB}} {
		for _, id := range refAcksSince(pair.from, pair.since) {
			if pair.to.IsAcked(id) {
				continue
			}
			if !spend(AckRecordBytes) {
				return finishExchange(a, b, now, res)
			}
			pair.to.LearnAck(id, now)
			res.Acks++
		}
	}
	if opts.AcksOnly {
		return finishExchange(a, b, now, res)
	}

	if spend(2 * ScalarBytes) {
		if a.avgTransfer.N() > 0 {
			b.setPeerTransfer(a.self, a.avgTransfer.Value())
		}
		if b.avgTransfer.N() > 0 {
			a.setPeerTransfer(b.self, b.avgTransfer.Value())
		}
	} else {
		return finishExchange(a, b, now, res)
	}

	for _, dir := range []struct {
		from, to *State
		inv      []InventoryItem
	}{{a, b, invA}, {b, a, invB}} {
		if len(dir.inv) == 0 {
			continue
		}
		dsts := map[packet.NodeID]bool{}
		for _, it := range dir.inv {
			dsts[it.Dst] = true
		}
		cost := int64(len(dir.inv)*BloomBitsPerPacket+7)/8 +
			int64(len(dsts))*QueueDigestBytesPerDst
		if !spend(cost) {
			return finishExchange(a, b, now, res)
		}
		for _, it := range dir.inv {
			dir.from.NoteReplica(it, dir.from.self, now)
			if dir.to.IsAcked(it.ID) {
				continue
			}
			dir.to.NoteReplica(it, dir.from.self, now)
			res.Inventory++
		}
	}

	for _, dir := range []struct{ from, to *State }{{a, b}, {b, a}} {
		ownEntries, _ := dir.from.Meet.TableLen(dir.from.self)
		if !spendTable(dir.from, dir.to, dir.from.self, ownEntries, now, spend, &res) {
			return finishExchange(a, b, now, res)
		}
		for _, owner := range dir.from.tableOwners {
			if owner == dir.to.self || owner == dir.from.self {
				continue
			}
			asOf := dir.from.tableAsOfFor(owner)
			if asOf <= dir.to.tableAsOfFor(owner) {
				continue
			}
			entries, ok := dir.from.Meet.TableLen(owner)
			if !ok {
				continue
			}
			if !spendTable(dir.from, dir.to, owner, entries, asOf, spend, &res) {
				return finishExchange(a, b, now, res)
			}
		}
	}

	if !opts.LocalOnly {
		for _, dir := range []struct {
			from, to *State
			toIDs    map[packet.ID]bool
			since    float64
		}{{a, b, refInventoryIDs(invB), sinceA}, {b, a, refInventoryIDs(invA), sinceB}} {
			for _, m := range refMetaChangedSince(dir.from, dir.since) {
				if !dir.toIDs[m.ID] {
					continue
				}
				for _, rep := range m.Replicas {
					if rep.Holder == dir.from.self || rep.Holder == dir.to.self {
						continue
					}
					if rep.Updated <= dir.since {
						continue
					}
					if !spend(ReplicaRecordBytes) {
						return finishExchange(a, b, now, res)
					}
					dir.to.NoteReplica(InventoryItem{
						ID: m.ID, Dst: m.Dst, Size: m.Size,
						Created: m.Created, Deadline: m.Deadline,
						Delay: rep.Delay,
					}, rep.Holder, rep.Updated)
					res.Replicas++
				}
			}
		}
	}
	return finishExchange(a, b, now, res)
}

// refAcksSince returns every ack learned after since, sorted, with no
// receiver filter.
func refAcksSince(s *State, since float64) []packet.ID {
	var out []packet.ID
	for _, ev := range s.ackLog[logStart(s.ackLog, since):] {
		out = append(out, ev.id)
	}
	slices.Sort(out)
	return out
}

// refMetaChangedSince dedups the metaLog events from logStart(since) on
// through a seen map and returns the still-known packets updated after
// since, sorted by ID.
func refMetaChangedSince(s *State, since float64) []*PacketMeta {
	seen := map[packet.ID]bool{}
	var out []*PacketMeta
	for _, ev := range s.metaLog[logStart(s.metaLog, since):] {
		if seen[ev.id] {
			continue
		}
		seen[ev.id] = true
		if m := s.meta[ev.id]; m != nil && m.Updated > since {
			out = append(out, m)
		}
	}
	slices.SortFunc(out, func(a, b *PacketMeta) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// refInventoryIDs collects an inventory's packet IDs.
func refInventoryIDs(inv []InventoryItem) map[packet.ID]bool {
	ids := make(map[packet.ID]bool, len(inv))
	for _, it := range inv {
		ids[it.ID] = true
	}
	return ids
}

// modelCoverage counts the situations the model test must reach for
// its agreement to mean anything.
type modelCoverage struct {
	outOfOrder  int // metaLog appends older than the previous entry
	missedByLog int // receiver packets updated after since but with no event at or after logStart
	ackCut      int // exchanges truncated during the ack step
	replicaCut  int // exchanges truncated during the replica step
	knownAcks   int // sender acks the receiver already held
	negDst      int // inventories naming a negative destination
	localOnly   int
	acksOnly    int
	dupInv      int // inventories naming a packet twice
}

// modelProbe records which coverage cases an exchange about to run on
// the real states reaches.
func modelProbe(cov *modelCoverage, a, b *State, invA, invB []InventoryItem) {
	for _, dir := range []struct {
		from, to *State
		toInv    []InventoryItem
	}{{a, b, invB}, {b, a, invA}} {
		since := dir.from.lastExchangeWith(dir.to.self)
		lo := logStart(dir.from.metaLog, since)
		for _, it := range dir.toInv {
			if m := dir.from.meta[it.ID]; m != nil && m.Updated > since && m.logPos < lo {
				cov.missedByLog++
			}
		}
		for _, ev := range dir.from.ackLog[logStart(dir.from.ackLog, since):] {
			if dir.to.IsAcked(ev.id) {
				cov.knownAcks++
			}
		}
	}
	for _, inv := range [][]InventoryItem{invA, invB} {
		ids := map[packet.ID]bool{}
		neg, dup := false, false
		for _, it := range inv {
			neg = neg || it.Dst < 0
			dup = dup || ids[it.ID]
			ids[it.ID] = true
		}
		if neg {
			cov.negDst++
		}
		if dup {
			cov.dupInv++
		}
	}
}

// compareStates reports the first difference between a state and its
// reference twin.
func compareStates(got, want *State) error {
	if !reflect.DeepEqual(got.acked, want.acked) {
		return fmt.Errorf("acked sets differ: %v vs %v", got.acked, want.acked)
	}
	if !slices.Equal(got.ackLog, want.ackLog) {
		return fmt.Errorf("ackLog differs")
	}
	if !slices.Equal(got.metaLog, want.metaLog) {
		return fmt.Errorf("metaLog differs")
	}
	if len(got.meta) != len(want.meta) {
		return fmt.Errorf("%d metas vs %d", len(got.meta), len(want.meta))
	}
	for id, m := range got.meta {
		w := want.meta[id]
		if w == nil || !reflect.DeepEqual(*m, *w) {
			return fmt.Errorf("packet %d: meta %+v vs %+v", id, m, w)
		}
	}
	if !slices.Equal(got.lastExchange, want.lastExchange) {
		return fmt.Errorf("lastExchange differs")
	}
	return nil
}

// TestExchangeMatchesReferenceModel runs random histories of
// NoteReplica, LearnAck and Exchange over 4–6 states against the
// reference model.
func TestExchangeMatchesReferenceModel(t *testing.T) {
	var cov modelCoverage
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(3)
		got := make([]*State, n)
		want := make([]*State, n)
		for i := range got {
			got[i] = NewState(packet.NodeID(i), 3, nil)
			want[i] = NewState(packet.NodeID(i), 3, nil)
		}
		const packets = 24
		item := func(id packet.ID, now float64) InventoryItem {
			// A packet's identity fields are a function of its ID; only
			// the delay estimate varies between announcements.
			return InventoryItem{
				ID: id, Dst: packet.NodeID(int(id)%(n+2) - 2), Size: 512 + int64(id),
				Created: float64(id), Deadline: 5000,
				Delay: 50 + r.Float64()*200,
			}
		}
		now := 0.0
		for step := 0; step < 300; step++ {
			now += r.Float64() * 20
			i := r.Intn(n)
			switch op := r.Intn(10); {
			case op < 3:
				// A third-party note, sometimes stamped in the past as a
				// relayed record is.
				it := item(packet.ID(r.Intn(packets)), now)
				holder := packet.NodeID(r.Intn(n + 3))
				at := now
				if r.Intn(3) == 0 {
					at = now - r.Float64()*100
				}
				got[i].NoteReplica(it, holder, at)
				want[i].NoteReplica(it, holder, at)
			case op < 4:
				id := packet.ID(r.Intn(packets * 2))
				got[i].LearnAck(id, now)
				want[i].LearnAck(id, now)
			default:
				j := r.Intn(n - 1)
				if j >= i {
					j++
				}
				inv := func() []InventoryItem {
					items := make([]InventoryItem, r.Intn(8))
					for k := range items {
						items[k] = item(packet.ID(r.Intn(packets)), now)
					}
					return items
				}
				invI, invJ := inv(), inv()
				opts := Options{MaxBytes: -1}
				switch r.Intn(6) {
				case 0, 1:
					opts.MaxBytes = int64(r.Intn(400))
				case 2:
					opts.LocalOnly = true
					cov.localOnly++
				case 3:
					opts.AcksOnly = true
					opts.MaxBytes = int64(r.Intn(60)) - 1
					cov.acksOnly++
				}
				modelProbe(&cov, got[i], got[j], invI, invJ)
				res := Exchange(got[i], got[j], invI, invJ, now, opts)
				ref := refExchange(want[i], want[j], invI, invJ, now, opts)
				if res != ref {
					t.Fatalf("seed %d step %d: Exchange %+v, model %+v", seed, step, res, ref)
				}
				// Replica records are the last step, so a truncated
				// exchange that sent some was cut inside that step; one
				// that spent only ack bytes was cut inside the ack step.
				if res.Truncated && res.Replicas > 0 {
					cov.replicaCut++
				}
				if res.Truncated && res.Acks > 0 && res.Bytes == int64(res.Acks)*AckRecordBytes {
					cov.ackCut++
				}
			}
			for k := range got {
				if err := compareStates(got[k], want[k]); err != nil {
					t.Fatalf("seed %d step %d state %d: %v", seed, step, k, err)
				}
			}
		}
		for _, s := range got {
			for k := 1; k < len(s.metaLog); k++ {
				if s.metaLog[k].t < s.metaLog[k-1].t {
					cov.outOfOrder++
				}
			}
		}
	}
	t.Logf("coverage %+v", cov)
	for name, c := range map[string]int{
		"out-of-order metaLog appends":         cov.outOfOrder,
		"packets only a time-ordered log sees": cov.missedByLog,
		"truncations in the ack step":          cov.ackCut,
		"truncations in the replica step":      cov.replicaCut,
		"acks the receiver already held":       cov.knownAcks,
		"negative destinations":                cov.negDst,
		"LocalOnly exchanges":                  cov.localOnly,
		"AcksOnly exchanges":                   cov.acksOnly,
		"duplicate inventory items":            cov.dupInv,
	} {
		if c == 0 {
			t.Errorf("the random histories never reached %s", name)
		}
	}
}

// TestOutOfOrderMetaLogPinned pins which replica records today's delta
// selects when metaLog is out of order. logStart binary-searches the
// log as if it were time-ordered, so a record stamped after the last
// exchange but logged before an older relayed one is not re-sent.
// That is a known defect (ROADMAP, Correctness): fixing it changes
// realizations, and this test moves with that golden re-baseline.
func TestOutOfOrderMetaLogPinned(t *testing.T) {
	a, b := twoStates()
	pkt := func(id packet.ID) InventoryItem {
		return InventoryItem{ID: id, Dst: 9, Size: 100, Created: 0, Delay: 100}
	}
	// a knows b holds packets 1–4; the later inventory from b repeats
	// the same estimates, so it logs nothing new at a.
	for id := packet.ID(1); id <= 4; id++ {
		a.NoteReplica(pkt(id), 1, 1)
	}
	Exchange(a, b, nil, nil, 30, unlimited())
	// Third-party records logged out of time order: 10, 50, 20, 60.
	for k, at := range []float64{10, 50, 20, 60} {
		id := packet.ID(k + 1)
		a.NoteReplica(pkt(id), packet.NodeID(5+k), at)
	}
	if got := logStart(a.metaLog, 30); got != 7 {
		t.Fatalf("logStart(30) = %d, want 7 (the t=60 entry)", got)
	}
	invB := []InventoryItem{pkt(4), pkt(3), pkt(2), pkt(1)}
	var ids []packet.ID
	for _, m := range a.metaChangedFor(invB, 30) {
		ids = append(ids, m.ID)
	}
	if !slices.Equal(ids, []packet.ID{4}) {
		t.Fatalf("selected packets %v, want [4] (packet 2, updated at 50, is missed)", ids)
	}
	res := Exchange(a, b, nil, invB, 70, unlimited())
	if res.Replicas != 1 {
		t.Errorf("replica records sent = %d, want 1", res.Replicas)
	}
	holders := func(id packet.ID) []packet.NodeID {
		var hs []packet.NodeID
		for _, rep := range b.Replicas(id) {
			hs = append(hs, rep.Holder)
		}
		return hs
	}
	if got := holders(4); !slices.Equal(got, []packet.NodeID{1, 8}) {
		t.Errorf("packet 4 holders at b = %v, want [1 8]", got)
	}
	if got := holders(2); !slices.Equal(got, []packet.NodeID{1}) {
		t.Errorf("packet 2 holders at b = %v, want [1] (holder 6 never relayed)", got)
	}
}
