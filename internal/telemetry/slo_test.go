package telemetry

import (
	"math"
	"strings"
	"testing"
	"time"
)

func mustSLO(t *testing.T, cfg SLOConfig) *SLO {
	t.Helper()
	s, err := NewSLO(cfg)
	if err != nil {
		t.Fatalf("NewSLO: %v", err)
	}
	return s
}

func TestNewSLOValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  SLOConfig
		want string
	}{
		{"empty", SLOConfig{}, "at least one objective"},
		{"both forms", SLOConfig{Objectives: []SLOObjective{{Name: "x", Quantile: 0.99, Bound: 0.025, Target: 0.999}}}, "exactly one"},
		{"neither form", SLOConfig{Objectives: []SLOObjective{{Name: "x"}}}, "exactly one"},
		{"quantile out of range", SLOConfig{Objectives: []SLOObjective{{Name: "x", Quantile: 1.5, Bound: 0.025}}}, "quantile in (0,1)"},
		{"negative bound", SLOConfig{Objectives: []SLOObjective{{Name: "x", Quantile: 0.99, Bound: -1}}}, "positive bound"},
		{"target out of range", SLOConfig{Objectives: []SLOObjective{{Name: "x", Target: 2}}}, "target in (0,1)"},
		{"duplicate", SLOConfig{Objectives: []SLOObjective{AvailabilityObjective(0.999), AvailabilityObjective(0.99)}}, "duplicate"},
		{"unnamed", SLOConfig{Objectives: []SLOObjective{{Quantile: 0.99, Bound: 0.025}}}, "needs a name"},
	}
	for _, c := range cases {
		if _, err := NewSLO(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	if _, err := NewSLO(SLOConfig{Objectives: []SLOObjective{
		LatencyObjective(0.99, 0.025),
		AvailabilityObjective(0.999),
	}}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestSLOLatencyClassification(t *testing.T) {
	s := mustSLO(t, SLOConfig{Objectives: []SLOObjective{LatencyObjective(0.9, 0.025)}})
	at := winBase
	for i := 0; i < 8; i++ {
		s.Observe(0.001, false, at) // well under the bound: good
	}
	s.Observe(0.030, false, at) // over the bound: bad even though it succeeded
	// A latency objective classifies by latency alone — a fast error is a
	// good event here (the error belongs to an availability objective).
	s.Observe(0.001, true, at)
	st := s.StatusAt(at)[0]
	if st.Requests != 10 || st.BadEvents != 1 {
		t.Fatalf("latency objective: requests=%d bad=%d, want 10/1", st.Requests, st.BadEvents)
	}
	// Budget fraction 0.1, so 1 bad in 10 spends the budget exactly.
	if math.Abs(st.BudgetRemaining) > 1e-9 {
		t.Fatalf("budget remaining = %g, want 0", st.BudgetRemaining)
	}
	if st.Objective != "p90 < 25ms" {
		t.Fatalf("describe = %q", st.Objective)
	}
}

func TestSLOAvailabilityBudget(t *testing.T) {
	s := mustSLO(t, SLOConfig{Objectives: []SLOObjective{AvailabilityObjective(0.999)}})
	at := winBase
	for i := 0; i < 999; i++ {
		s.Observe(0.001, false, at)
	}
	st := s.StatusAt(at)[0]
	if st.BudgetRemaining != 1 {
		t.Fatalf("untouched budget = %g, want 1", st.BudgetRemaining)
	}
	s.Observe(0.001, true, at)
	st = s.StatusAt(at)[0]
	// 1 bad in 1000 at a 0.1% budget: exactly spent.
	if got := st.BudgetRemaining; got < -1e-9 || got > 1e-9 {
		t.Fatalf("spent budget = %g, want 0", got)
	}
	s.Observe(0.001, true, at)
	if st = s.StatusAt(at)[0]; st.BudgetRemaining >= 0 {
		t.Fatalf("overspent budget = %g, want negative", st.BudgetRemaining)
	}
}

func TestSLOMultiWindowDegradation(t *testing.T) {
	s := mustSLO(t, SLOConfig{Objectives: []SLOObjective{AvailabilityObjective(0.999)}})
	burst := winBase.Add(10 * time.Second)
	for i := 0; i < 50; i++ {
		s.Observe(0.001, true, burst) // every request fails: burn 1000x
	}
	now := burst.Add(5 * time.Second)
	if !s.DegradedAt(now) {
		t.Fatal("all-failing burst inside both windows must degrade")
	}
	st := s.StatusAt(now)[0]
	if st.BurnRates["1m"] < DefaultFastBurn || st.BurnRates["5m"] < DefaultFastBurn {
		t.Fatalf("burn rates %v, want both >= %g", st.BurnRates, DefaultFastBurn)
	}
	if !st.Degraded {
		t.Fatal("objective status must report degraded")
	}

	// Two minutes later the burst has left the short window but not the
	// long one: the fast-burn rule needs BOTH, so the page clears.
	later := burst.Add(2 * time.Minute)
	if s.DegradedAt(later) {
		t.Fatal("burst outside the short window must clear degradation")
	}
	st = s.StatusAt(later)[0]
	if st.BurnRates["1m"] != 0 {
		t.Fatalf("short burn after the burst = %g, want 0", st.BurnRates["1m"])
	}
	if st.BurnRates["5m"] < DefaultFastBurn {
		t.Fatalf("long burn should still see the burst, got %g", st.BurnRates["5m"])
	}
	// Lifetime budget accounting is not windowed: still fully overspent.
	if st.BudgetRemaining >= 0 {
		t.Fatalf("lifetime budget = %g, want negative", st.BudgetRemaining)
	}
}

// TestSLOCountsObservationsOlderThanTheRing pins that the lifetime totals
// are the cumulative histogram's, not the ring's: a request whose
// completion time the ring has already wrapped past is dropped from every
// window, yet still counts in Requests, BadEvents and the budget.
func TestSLOCountsObservationsOlderThanTheRing(t *testing.T) {
	s := mustSLO(t, SLOConfig{Objectives: []SLOObjective{AvailabilityObjective(0.9)}})
	now := winBase.Add(time.Hour)
	for i := 0; i < 9; i++ {
		s.Observe(0.001, false, now)
	}
	// One ring span earlier lands on the slice now holds: too old for it.
	s.Observe(0.001, true, now.Add(-DefaultWindowSlice*DefaultWindowSlices))
	st := s.StatusAt(now)[0]
	if st.Requests != 10 || st.BadEvents != 1 {
		t.Fatalf("requests=%d bad=%d, want 10/1 (the old observation included)", st.Requests, st.BadEvents)
	}
	// 1 bad in 10 at a 10% budget: exactly spent.
	if math.Abs(st.BudgetRemaining) > 1e-9 {
		t.Fatalf("budget remaining = %g, want 0", st.BudgetRemaining)
	}
	if st.BurnRates["1m"] != 0 || st.BurnRates["5m"] != 0 {
		t.Fatalf("burn rates %v, want 0: no window saw the old failure", st.BurnRates)
	}
}

func TestSLONilIsInert(t *testing.T) {
	var s *SLO
	s.Observe(1, true, winBase) // must not panic
	if s.Degraded() || s.DegradedAt(winBase) {
		t.Fatal("nil SLO must never degrade")
	}
	if s.StatusAt(winBase) != nil {
		t.Fatal("nil SLO status must be nil")
	}
	if s.FastBurn() != 0 {
		t.Fatal("nil SLO fast burn must be 0")
	}
	s.Register(NewRegistry()) // must not panic
}

func TestSLORegisterGauges(t *testing.T) {
	s := mustSLO(t, SLOConfig{Objectives: []SLOObjective{
		LatencyObjective(0.99, 0.025),
		AvailabilityObjective(0.999),
	}})
	reg := NewRegistry()
	s.Register(reg)
	byName := map[string]FamilySnapshot{}
	for _, f := range reg.Gather() {
		byName[f.Name] = f
	}
	burn := byName["rknn_slo_burn_rate"]
	if len(burn.Samples) != 4 { // 2 objectives x 2 windows
		t.Fatalf("burn-rate series = %d, want 4", len(burn.Samples))
	}
	budget := byName["rknn_slo_error_budget_remaining_ratio"]
	if len(budget.Samples) != 2 {
		t.Fatalf("budget series = %d, want 2", len(budget.Samples))
	}
	for _, smp := range budget.Samples {
		if smp.Value != 1 {
			t.Fatalf("untouched budget gauge = %g, want 1", smp.Value)
		}
	}
}

func TestDurKey(t *testing.T) {
	for d, want := range map[time.Duration]string{
		time.Minute:      "1m",
		5 * time.Minute:  "5m",
		90 * time.Second: "90s",
	} {
		if got := durKey(d); got != want {
			t.Errorf("durKey(%s) = %q, want %q", d, got, want)
		}
	}
}
