package telemetry

import (
	"fmt"
	"time"
)

// This file is the SLO engine: configurable service-level objectives
// tracked against the windowed data, with Google-SRE multi-window
// burn-rate alerting semantics. Each objective classifies every data-plane
// request as good or bad (a latency objective counts requests over its
// bound; an availability objective counts errors) and observes it as 0
// (good) or 1 (bad) into one Windowed over a bucketless histogram, whose
// Count is the requests and Sum the bad events. From that one instrument:
//
//   - the lifetime totals of its cumulative histogram give the remaining
//     error budget (rknn_slo_error_budget_remaining_ratio): 1 means the
//     budget is untouched, 0 means exactly spent, negative means overspent;
//   - the window totals of its 30×10s ring give the burn rates
//     (rknn_slo_burn_rate{window}): the ratio of the observed
//     bad fraction to the budget fraction, so burn 1.0 spends the budget
//     exactly at the sustainable rate and burn 14.4 exhausts a 30-day
//     budget in ~50 hours — the classic fast-burn page threshold.
//
// Degradation trips when BOTH the short and the long window burn at or
// above the fast-burn threshold: the long window proves the problem is
// real (not one slow request), the short window proves it is still
// happening (the alert resets quickly once the incident ends). The server
// surfaces this as /healthz?slo=1 turning 503.

// Default multi-window fast-burn parameters (Google SRE workbook, chapter
// 5: 14.4 corresponds to spending 2% of a 30-day budget in one hour).
const (
	DefaultFastBurn    = 14.4
	DefaultShortWindow = time.Minute
	DefaultLongWindow  = 5 * time.Minute
)

// SLOObjective is one objective's configuration. Exactly one of the two
// forms is set: a latency objective (Quantile, Bound) or an availability
// objective (Target).
type SLOObjective struct {
	// Name labels the objective's series ("latency", "availability").
	Name string
	// Quantile and Bound define a latency objective: the Quantile of
	// requests must complete within Bound seconds, so a request slower
	// than Bound is a bad event and the budget fraction is 1-Quantile.
	Quantile float64
	Bound    float64
	// Target defines an availability objective: the fraction of requests
	// that must succeed, so an errored request is a bad event and the
	// budget fraction is 1-Target.
	Target float64
}

// LatencyObjective builds "quantile of requests under bound seconds".
func LatencyObjective(quantile, boundSeconds float64) SLOObjective {
	return SLOObjective{Name: "latency", Quantile: quantile, Bound: boundSeconds}
}

// AvailabilityObjective builds "target fraction of requests succeed".
func AvailabilityObjective(target float64) SLOObjective {
	return SLOObjective{Name: "availability", Target: target}
}

// budgetFraction returns the allowed bad-event fraction.
func (o SLOObjective) budgetFraction() float64 {
	if o.Target > 0 {
		return 1 - o.Target
	}
	return 1 - o.Quantile
}

// validate rejects shapes that would divide by zero or invert the math.
func (o SLOObjective) validate() error {
	if o.Name == "" {
		return fmt.Errorf("telemetry: SLO objective needs a name")
	}
	lat := o.Quantile != 0 || o.Bound != 0
	avail := o.Target != 0
	if lat == avail {
		return fmt.Errorf("telemetry: SLO objective %q must set exactly one of (quantile, bound) and target", o.Name)
	}
	if lat && (o.Quantile <= 0 || o.Quantile >= 1 || o.Bound <= 0) {
		return fmt.Errorf("telemetry: SLO objective %q needs quantile in (0,1) and a positive bound", o.Name)
	}
	if avail && (o.Target <= 0 || o.Target >= 1) {
		return fmt.Errorf("telemetry: SLO objective %q needs target in (0,1)", o.Name)
	}
	return nil
}

// SLOConfig configures NewSLO. Zero-valued fields take the defaults above.
type SLOConfig struct {
	Objectives []SLOObjective
	FastBurn   float64
	Short      time.Duration
	Long       time.Duration
}

// sloObjective is one objective's live state: every request observed as 0
// (good) or 1 (bad).
type sloObjective struct {
	SLOObjective
	budget float64
	events *Windowed
}

// SLO tracks a set of objectives against the live request stream. Observe
// is called once per data-plane request with the latency and error outcome
// the instrumentation already holds; every read derives from the
// objectives' windows. A nil *SLO is inert.
type SLO struct {
	fastBurn   float64
	short      time.Duration
	long       time.Duration
	objectives []*sloObjective
}

// NewSLO builds the engine; it errors on an empty or malformed objective
// list so flag parsing surfaces mistakes at startup, not at page time.
func NewSLO(cfg SLOConfig) (*SLO, error) {
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("telemetry: SLO needs at least one objective")
	}
	s := &SLO{fastBurn: cfg.FastBurn, short: cfg.Short, long: cfg.Long}
	if s.fastBurn <= 0 {
		s.fastBurn = DefaultFastBurn
	}
	if s.short <= 0 {
		s.short = DefaultShortWindow
	}
	if s.long <= s.short {
		s.long = DefaultLongWindow
		if s.long <= s.short {
			s.long = 5 * s.short
		}
	}
	seen := make(map[string]bool, len(cfg.Objectives))
	for _, o := range cfg.Objectives {
		if err := o.validate(); err != nil {
			return nil, err
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("telemetry: duplicate SLO objective %q", o.Name)
		}
		seen[o.Name] = true
		s.objectives = append(s.objectives, &sloObjective{
			SLOObjective: o,
			budget:       o.budgetFraction(),
			events:       NewDefaultWindowed(NewHistogram(nil)),
		})
	}
	return s, nil
}

// Observe classifies one request against every objective. at is the
// request's completion time (begin + measured latency — no extra clock
// read on the hot path).
func (s *SLO) Observe(latencySeconds float64, failed bool, at time.Time) {
	if s == nil {
		return
	}
	for _, o := range s.objectives {
		bad := failed
		if o.Bound > 0 {
			bad = latencySeconds > o.Bound
		}
		v := 0.0
		if bad {
			v = 1
		}
		o.events.Observe(v, at)
	}
}

// burnAt returns the burn rate of one objective over the window ending at
// now: (bad/total)/budget, 0 when the window saw no traffic.
func (o *sloObjective) burnAt(window time.Duration, now time.Time) float64 {
	w := o.events.SnapshotWindowAt(window, now)
	if w.Count == 0 {
		return 0
	}
	return (w.Sum / float64(w.Count)) / o.budget
}

// lifetime returns the requests and bad events observed since the start,
// older-than-the-ring ones included.
func (o *sloObjective) lifetime() (requests, bad int64) {
	h := o.events.Histogram()
	return int64(h.Count()), int64(h.Sum())
}

// budgetRemaining returns the lifetime error-budget remaining ratio: the
// fraction of the allowed bad events not yet consumed. 1 with no traffic,
// negative once overspent.
func (o *sloObjective) budgetRemaining() float64 {
	total, bad := o.lifetime()
	if total == 0 {
		return 1
	}
	return 1 - float64(bad)/(float64(total)*o.budget)
}

// DegradedAt reports whether any objective trips the multi-window
// fast-burn rule at the reading time.
func (s *SLO) DegradedAt(now time.Time) bool {
	if s == nil {
		return false
	}
	for _, o := range s.objectives {
		if o.burnAt(s.long, now) >= s.fastBurn && o.burnAt(s.short, now) >= s.fastBurn {
			return true
		}
	}
	return false
}

// Degraded is DegradedAt(now).
func (s *SLO) Degraded() bool { return s.DegradedAt(time.Now()) }

// SLOStatus is one objective's live readout.
type SLOStatus struct {
	Name            string             `json:"name"`
	Objective       string             `json:"objective"`
	BudgetFraction  float64            `json:"budget_fraction"`
	Requests        int64              `json:"requests"`
	BadEvents       int64              `json:"bad_events"`
	BudgetRemaining float64            `json:"error_budget_remaining_ratio"`
	BurnRates       map[string]float64 `json:"burn_rates"`
	Degraded        bool               `json:"degraded"`
}

// describe renders the objective for humans ("p99 < 25ms", "99.9%").
func (o SLOObjective) describe() string {
	if o.Target > 0 {
		return fmt.Sprintf("%g%% of requests succeed", o.Target*100)
	}
	return fmt.Sprintf("p%g < %s", o.Quantile*100, time.Duration(o.Bound*float64(time.Second)))
}

// FastBurn returns the configured fast-burn threshold.
func (s *SLO) FastBurn() float64 {
	if s == nil {
		return 0
	}
	return s.fastBurn
}

// Windows returns the short and long burn windows.
func (s *SLO) Windows() (short, long time.Duration) {
	if s == nil {
		return 0, 0
	}
	return s.short, s.long
}

// StatusAt digests every objective at the reading time.
func (s *SLO) StatusAt(now time.Time) []SLOStatus {
	if s == nil {
		return nil
	}
	out := make([]SLOStatus, 0, len(s.objectives))
	for _, o := range s.objectives {
		burnShort := o.burnAt(s.short, now)
		burnLong := o.burnAt(s.long, now)
		requests, bad := o.lifetime()
		out = append(out, SLOStatus{
			Name:            o.Name,
			Objective:       o.describe(),
			BudgetFraction:  o.budget,
			Requests:        requests,
			BadEvents:       bad,
			BudgetRemaining: o.budgetRemaining(),
			BurnRates: map[string]float64{
				durKey(s.short): burnShort,
				durKey(s.long):  burnLong,
			},
			Degraded: burnShort >= s.fastBurn && burnLong >= s.fastBurn,
		})
	}
	return out
}

// Register exposes the SLO gauges on reg:
// rknn_slo_burn_rate{slo,window} for both windows and
// rknn_slo_error_budget_remaining_ratio{slo}, each computed at scrape time
// from the same state /v1/admin/slo reports.
func (s *SLO) Register(reg *Registry) {
	if s == nil {
		return
	}
	for _, o := range s.objectives {
		o := o
		for _, win := range []time.Duration{s.short, s.long} {
			win := win
			reg.GaugeFunc("rknn_slo_burn_rate",
				"Error-budget burn rate over the trailing window: observed bad fraction over allowed bad fraction (1 = sustainable spend).",
				func() float64 { return o.burnAt(win, time.Now()) },
				Label{Name: "slo", Value: o.Name}, Label{Name: "window", Value: durKey(win)})
		}
		reg.GaugeFunc("rknn_slo_error_budget_remaining_ratio",
			"Lifetime fraction of the SLO error budget not yet consumed (1 = untouched, negative = overspent).",
			func() float64 { return o.budgetRemaining() },
			Label{Name: "slo", Value: o.Name})
	}
}

// durKey renders a window duration the way dashboards spell it: "1m",
// "5m", "90s".
func durKey(d time.Duration) string {
	if d >= time.Minute && d%time.Minute == 0 {
		return fmt.Sprintf("%dm", int64(d/time.Minute))
	}
	if d%time.Second == 0 {
		return fmt.Sprintf("%ds", int64(d/time.Second))
	}
	return d.String()
}
