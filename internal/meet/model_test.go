package meet

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rapid/internal/packet"
	"rapid/internal/stat"
)

// refModel is a map-based reference estimator: the §4.1.2 semantics
// with no incremental adjacency, no sorted rows and no memo. Every
// merge replaces the owner's table outright, and Expected relaxes the
// whole matrix from scratch.
type refModel struct {
	self     packet.NodeID
	hops     int
	direct   map[packet.NodeID]*stat.MovingAverage
	lastSeen map[packet.NodeID]float64
	tables   map[packet.NodeID]map[packet.NodeID]float64
	version  uint64
}

func newRefModel(self packet.NodeID, hops int) *refModel {
	return &refModel{
		self: self, hops: hops,
		direct:   map[packet.NodeID]*stat.MovingAverage{},
		lastSeen: map[packet.NodeID]float64{},
		tables:   map[packet.NodeID]map[packet.NodeID]float64{},
	}
}

func (m *refModel) observe(peer packet.NodeID, now float64) {
	if peer == m.self || peer < 0 || m.self < 0 {
		return
	}
	ma := m.direct[peer]
	if ma == nil {
		ma = &stat.MovingAverage{}
		m.direct[peer] = ma
	}
	ma.Observe(now - m.lastSeen[peer])
	m.lastSeen[peer] = now
	if m.tables[m.self] == nil {
		m.tables[m.self] = map[packet.NodeID]float64{}
	}
	m.tables[m.self][peer] = ma.Value()
	m.version++
}

func (m *refModel) merge(owner packet.NodeID, t map[packet.NodeID]float64) {
	if owner == m.self || owner < 0 {
		return
	}
	old, had := m.tables[owner]
	changed := len(old) != len(t)
	for id, w := range t {
		if ow, ok := old[id]; !ok || ow != w {
			changed = true
		}
	}
	if had && !changed {
		return
	}
	cp := make(map[packet.NodeID]float64, len(t))
	for id, w := range t {
		cp[id] = w
	}
	m.tables[owner] = cp
	if changed {
		m.version++
	}
}

func (m *refModel) known() []packet.NodeID {
	var ids []packet.NodeID
	for id := range m.tables {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (m *refModel) expected(from, to packet.NodeID) float64 {
	if from == to {
		return 0
	}
	inf := math.Inf(1)
	adj := map[packet.NodeID]map[packet.NodeID]float64{}
	link := func(u, v packet.NodeID, w float64) {
		if adj[u] == nil {
			adj[u] = map[packet.NodeID]float64{}
		}
		if cur, ok := adj[u][v]; !ok || w < cur {
			adj[u][v] = w
		}
	}
	for owner, t := range m.tables {
		for peer, w := range t {
			if owner != peer && owner >= 0 && peer >= 0 && w < inf {
				link(owner, peer, w)
				link(peer, owner, w)
			}
		}
	}
	get := func(d map[packet.NodeID]float64, id packet.NodeID) float64 {
		if v, ok := d[id]; ok {
			return v
		}
		return inf
	}
	dist := map[packet.NodeID]float64{from: 0}
	for hop := 0; hop < m.hops; hop++ {
		next := make(map[packet.NodeID]float64, len(dist))
		for id, d := range dist {
			next[id] = d
		}
		for u, du := range dist {
			for v, w := range adj[u] {
				if d := du + w; d < get(next, v) {
					next[v] = d
				}
			}
		}
		dist = next
	}
	return get(dist, to)
}

// TestEstimatorMatchesReferenceModel drives random sequences of
// observations, map merges (with entry removals), row merges between
// estimators and Expected queries against the reference model, and
// requires identical estimates, owner sets and version movement.
func TestEstimatorMatchesReferenceModel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		runModelSequence(t, seed)
	}
}

func runModelSequence(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	selves := []packet.NodeID{0, 1, 2, 3, -1}
	ests := make([]*Estimator, len(selves))
	models := make([]*refModel, len(selves))
	clocks := make([]float64, len(selves))
	hops := 1 + r.Intn(4)
	for i, s := range selves {
		ests[i], models[i] = New(s, hops), newRefModel(s, hops)
	}
	const universe = 10
	weights := []float64{5, 10, 10, 20, 35, 50, math.Inf(1)}
	randTable := func(base map[packet.NodeID]float64) map[packet.NodeID]float64 {
		t := map[packet.NodeID]float64{}
		for id, w := range base {
			switch r.Intn(5) {
			case 0: // removed
			case 1:
				t[id] = weights[r.Intn(len(weights))]
			default:
				t[id] = w
			}
		}
		for k := r.Intn(4); k > 0; k-- {
			t[packet.NodeID(r.Intn(universe+1)-1)] = weights[r.Intn(len(weights))]
		}
		return t
	}
	for step := 0; step < 300; step++ {
		i := r.Intn(len(ests))
		e, m := ests[i], models[i]
		switch op := r.Intn(10); {
		case op < 3:
			clocks[i] += float64(r.Intn(40))
			peer := packet.NodeID(r.Intn(universe+1) - 1)
			e.ObserveMeeting(peer, clocks[i])
			m.observe(peer, clocks[i])
		case op < 6:
			owner := packet.NodeID(r.Intn(universe+1) - 1)
			tbl := randTable(m.tables[owner])
			e.MergeTable(owner, Table(tbl))
			m.merge(owner, tbl)
		case op < 9:
			j := r.Intn(len(ests))
			owner := packet.NodeID(r.Intn(universe+1) - 1)
			if r.Intn(2) == 0 {
				owner = selves[j]
			}
			e.MergeTableFrom(ests[j], owner)
			if j != i {
				m.merge(owner, models[j].tables[owner])
			}
		default:
			from := packet.NodeID(r.Intn(universe+2) - 1)
			to := packet.NodeID(r.Intn(universe+2) - 1)
			if got, want := e.Expected(from, to), m.expected(from, to); got != want {
				t.Fatalf("seed %d step %d: Expected(%d,%d)=%v want %v", seed, step, from, to, got, want)
			}
		}
		if e.Version() != m.version {
			t.Fatalf("seed %d step %d: version %d want %d", seed, step, e.Version(), m.version)
		}
		if got, want := e.KnownTables(), m.known(); !slices.Equal(got, want) {
			t.Fatalf("seed %d step %d: KnownTables %v want %v", seed, step, got, want)
		}
		if step%25 == 24 {
			for from := packet.NodeID(-1); from <= universe; from++ {
				for to := packet.NodeID(-1); to <= universe; to++ {
					if got, want := e.Expected(from, to), m.expected(from, to); got != want {
						t.Fatalf("seed %d step %d: Expected(%d,%d)=%v want %v", seed, step, from, to, got, want)
					}
				}
			}
		}
	}
}

// TestMemoRecomputedAfterBump queries a memoised source, mutates the
// matrix, and queries the same source again: the stale distance row
// must be recomputed, also when only the node universe grew.
func TestMemoRecomputedAfterBump(t *testing.T) {
	e := New(0, 3)
	e.ObserveMeeting(1, 100) // 0-1: 100
	e.MergeTable(1, Table{2: 50})
	if got := e.Expected(0, 2); got != 150 {
		t.Fatalf("initial 0→2 %v want 150", got)
	}
	if got := e.Expected(1, 2); got != 50 {
		t.Fatalf("initial 1→2 %v want 50", got)
	}
	e.MergeTable(1, Table{2: 20})
	if got := e.Expected(0, 2); got != 120 {
		t.Errorf("0→2 after bump %v want 120", got)
	}
	e.MergeTable(1, Table{})
	if got := e.Expected(0, 2); !math.IsInf(got, 1) {
		t.Errorf("0→2 after removal %v want +Inf", got)
	}
	if got := e.Expected(1, 2); !math.IsInf(got, 1) {
		t.Errorf("1→2 after removal %v want +Inf", got)
	}
	// Installing an empty table for a new owner grows the node universe
	// without moving the version.
	v := e.Version()
	e.MergeTable(40, Table{})
	if e.Version() != v {
		t.Fatalf("empty install bumped version")
	}
	if got := e.Expected(0, 40); !math.IsInf(got, 1) {
		t.Errorf("0→40 %v want +Inf", got)
	}
	if got := e.Expected(0, 1); got != 100 {
		t.Errorf("0→1 after growth %v want 100", got)
	}
}
