package trace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"rapid/internal/packet"
)

// TestExpandExactOccurrenceTimes: occurrence times are Start + i·Period
// computed from the integer counter, bit-exact at the 10⁵th occurrence.
// The accumulating form t += Period drifts by an ULP per step and broke
// the documented byte-identical determinism of plan expansion.
func TestExpandExactOccurrenceTimes(t *testing.T) {
	const (
		start  = 0.3
		period = 0.1 // not representable in binary: maximal drift exposure
		n      = 100_000
	)
	cp := &ContactPlan{Duration: start + period*n}
	cp.Add(0, 1, start, period, 64)
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	s := cp.Expand()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Meetings) < n-1 || len(s.Meetings) > n+1 {
		t.Fatalf("expanded %d occurrences, want ~%d", len(s.Meetings), n)
	}
	for i, m := range s.Meetings {
		if want := start + float64(i)*period; m.Time != want {
			t.Fatalf("occurrence %d at %v, want exactly %v", i, m.Time, want)
		}
	}
}

// TestExpandDeterministic: the same plan flattens to identical
// schedules across expansions (the property the contact-graph families
// and their cache keys rely on).
func TestExpandDeterministic(t *testing.T) {
	cp := &ContactPlan{Duration: 5000}
	cp.Add(0, 1, 1.7, 3.3, 100)
	cp.AddWindow(1, 2, 0.5, 7.1, 2.5, 512)
	a, b := cp.Expand(), cp.Expand()
	if len(a.Meetings) != len(b.Meetings) || len(a.Contacts) != len(b.Contacts) {
		t.Fatal("expansion sizes differ")
	}
	for i := range a.Meetings {
		if a.Meetings[i] != b.Meetings[i] {
			t.Fatalf("meeting %d differs", i)
		}
	}
	for i := range a.Contacts {
		if a.Contacts[i] != b.Contacts[i] {
			t.Fatalf("contact %d differs", i)
		}
	}
}

// TestValidateRejectsTinyPeriod: a period in (0, MinPeriod) would
// expand to billions of occurrences — Validate must refuse it before
// Expand can OOM.
func TestValidateRejectsTinyPeriod(t *testing.T) {
	for _, period := range []float64{1e-9, MinPeriod / 2, math.Nextafter(0, 1)} {
		cp := &ContactPlan{Duration: 1000}
		cp.Add(0, 1, 0, period, 10)
		if err := cp.Validate(); err == nil {
			t.Errorf("period %g accepted, want rejection", period)
		}
	}
	// The floor itself (over a horizon inside the occurrence budget)
	// and one-shot declarations stay legal.
	ok := &ContactPlan{Duration: 1}
	ok.Add(0, 1, 0, MinPeriod, 10)
	ok.Add(0, 1, 0.5, 0, 10)
	ok.Add(0, 1, 0.7, -1, 10)
	if err := ok.Validate(); err != nil {
		t.Errorf("legal periods rejected: %v", err)
	}
}

// TestValidateRejectsBudgetBustingExpansion: a legal period over a huge
// horizon still must not expand past the occurrence budget (the OOM
// guard MinPeriod alone cannot provide).
func TestValidateRejectsBudgetBustingExpansion(t *testing.T) {
	cp := &ContactPlan{Duration: 1000}
	cp.Add(0, 1, 0, MinPeriod, 10) // (1000-0)/1e-6 = 1e9 occurrences
	if err := cp.Validate(); err == nil {
		t.Error("billion-occurrence plan accepted, want rejection")
	}
	// Non-finite horizons are rejected before any expansion math.
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		cp := &ContactPlan{Duration: d}
		cp.Add(0, 1, 0, 10, 10)
		if err := cp.Validate(); err == nil {
			t.Errorf("duration %v accepted, want rejection", d)
		}
	}
}

// TestValidateRejectsBadWindows: windowed plan contacts need a positive
// finite rate and must not overlap themselves (window > period).
func TestValidateRejectsBadWindows(t *testing.T) {
	cases := []struct {
		name                 string
		window, rate, period float64
	}{
		{"zero rate", 5, 0, 60},
		{"negative rate", 5, -3, 60},
		{"inf rate", 5, math.Inf(1), 60},
		{"nan rate", 5, math.NaN(), 60},
		{"negative window", -2, 100, 60},
		{"self-overlap", 90, 100, 60},
	}
	for _, c := range cases {
		cp := &ContactPlan{Duration: 1000}
		cp.Contacts = append(cp.Contacts, PeriodicContact{
			A: 0, B: 1, Start: 0, Period: c.period,
			Window: c.window, RateBps: c.rate,
		})
		if err := cp.Validate(); err == nil {
			t.Errorf("%s: accepted, want rejection", c.name)
		}
	}
}

// TestExpandWindows: windowed plan contacts flatten to trace.Contact
// windows, clipped to the horizon; point contacts keep flattening to
// meetings in the same plan.
func TestExpandWindows(t *testing.T) {
	cp := &ContactPlan{Duration: 100}
	cp.AddWindow(0, 1, 10, 40, 15, 1000)
	cp.Add(1, 2, 5, 50, 777)
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	s := cp.Expand()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Meetings) != 2 { // t = 5, 55
		t.Fatalf("meetings %v", s.Meetings)
	}
	if len(s.Contacts) != 3 { // t = 10, 50, 90 (clipped to 10 s)
		t.Fatalf("contacts %v", s.Contacts)
	}
	for _, c := range s.Contacts {
		if !c.Windowed() || c.RateBps != 1000 {
			t.Fatalf("bad contact %+v", c)
		}
		if c.End() > s.Duration {
			t.Fatalf("contact %+v overruns the horizon", c)
		}
	}
	if last := s.Contacts[2]; last.Start != 90 || last.Duration != 10 {
		t.Errorf("horizon clip wrong: %+v", last)
	}
	if got := s.Contacts[0].Capacity(); got != 15000 {
		t.Errorf("window capacity %d want 15000", got)
	}
}

// TestContactDegradesToMeeting: the zero-duration form is exactly a
// Meeting.
func TestContactDegradesToMeeting(t *testing.T) {
	c := Contact{A: 3, B: 4, Start: 12.5, Bytes: 900}
	if c.Capacity() != 900 || c.Windowed() || c.End() != 12.5 {
		t.Errorf("degenerate accessors wrong: %+v", c)
	}
	if w := (Contact{A: 1, B: 2, Duration: 5, RateBps: 10}); !w.Windowed() || w.Capacity() != 50 {
		t.Errorf("windowed accessors wrong: %+v", w)
	}
}

// TestScheduleValidateWindows: windowed contacts are checked for rate
// sanity and horizon overrun.
func TestScheduleValidateWindows(t *testing.T) {
	good := &Schedule{Duration: 100, Contacts: []Contact{
		{A: 0, B: 1, Start: 10, Duration: 20, RateBps: 100},
		{A: 0, B: 1, Start: 95, Bytes: 50},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid windowed schedule rejected: %v", err)
	}
	bad := []Schedule{
		{Duration: 100, Contacts: []Contact{{A: 1, B: 1, Start: 1, Duration: 2, RateBps: 1}}},
		{Duration: 100, Contacts: []Contact{{A: 0, B: 1, Start: 90, Duration: 20, RateBps: 1}}},
		{Duration: 100, Contacts: []Contact{{A: 0, B: 1, Start: 10, Duration: 5}}},
		{Duration: 100, Contacts: []Contact{{A: 0, B: 1, Start: -1, Bytes: 5}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

// TestCodecRoundTripContacts: windowed contacts survive the text codec
// (the meeting-only round-trip is property-tested in TestCodecRoundTrip;
// this guards the contact directive added with the window model).
func TestCodecRoundTripContacts(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	s := &Schedule{Duration: 1000}
	tm := 0.0
	for i := 0; i < 40; i++ {
		tm += r.Float64() * 10
		if i%3 == 0 {
			s.Contacts = append(s.Contacts, Contact{
				A: packet.NodeID(r.Intn(10)), B: packet.NodeID(10 + r.Intn(10)),
				Start: tm, Bytes: int64(r.Intn(1 << 20)),
			})
			continue
		}
		s.Contacts = append(s.Contacts, Contact{
			A: packet.NodeID(r.Intn(10)), B: packet.NodeID(10 + r.Intn(10)),
			Start: tm, Duration: 1 + r.Float64()*20, RateBps: 1 + r.Float64()*1e6,
		})
	}
	s.Meetings = append(s.Meetings, Meeting{A: 0, B: 11, Time: 1, Bytes: 5})
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Contacts) != len(s.Contacts) || len(got.Meetings) != len(s.Meetings) {
		t.Fatalf("round trip lost records: %d/%d contacts, %d/%d meetings",
			len(got.Contacts), len(s.Contacts), len(got.Meetings), len(s.Meetings))
	}
	for i := range s.Contacts {
		a, b := s.Contacts[i], got.Contacts[i]
		if a.A != b.A || a.B != b.B || a.Bytes != b.Bytes || a.Windowed() != b.Windowed() {
			t.Fatalf("contact %d: %+v != %+v", i, a, b)
		}
		rel := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(1, math.Abs(x)) }
		if !rel(a.Start, b.Start) || !rel(a.Duration, b.Duration) || !rel(a.RateBps, b.RateBps) {
			t.Fatalf("contact %d fields drifted: %+v != %+v", i, a, b)
		}
	}
}
