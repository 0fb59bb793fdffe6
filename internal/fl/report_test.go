package fl

import (
	"fmt"
	"testing"
)

// reportSpy forwards selection to an inner selector, declares the
// UpdateConsumer capability as configured, and holds every feedback it
// observes to the report contract as it arrives. It keeps each step's mean
// report loss, summed in report order, for the history check.
type reportSpy struct {
	inner       Selector
	t           *testing.T
	label       string
	needUpdates bool
	wantUpdates bool // needUpdates and no masking
	sync        bool
	ever        map[int]bool // every party selected so far
	means       []float64
	reports     int
}

func (s *reportSpy) Name() string            { return s.inner.Name() }
func (s *reportSpy) Select(r, tgt int) []int { return s.inner.Select(r, tgt) }
func (s *reportSpy) NeedsUpdates() bool      { return s.needUpdates }

func (s *reportSpy) Observe(fb RoundFeedback) {
	if fb.Round != len(s.means) {
		s.t.Errorf("%s: feedback for round %d, want %d", s.label, fb.Round, len(s.means))
	}
	selected := map[int]bool{}
	for _, id := range fb.Selected {
		selected[id] = true
		s.ever[id] = true
	}
	straggled := map[int]bool{}
	for _, id := range fb.Stragglers {
		straggled[id] = true
	}
	seen := map[int]bool{}
	var lossSum float64
	for _, r := range fb.Completed {
		switch {
		case seen[r.ID]:
			s.t.Errorf("%s round %d: party %d reported twice", s.label, fb.Round, r.ID)
		case straggled[r.ID]:
			s.t.Errorf("%s round %d: straggler %d has a report", s.label, fb.Round, r.ID)
		case s.sync && !selected[r.ID]:
			s.t.Errorf("%s round %d: party %d reported but not selected this round", s.label, fb.Round, r.ID)
		case !s.ever[r.ID]:
			s.t.Errorf("%s round %d: party %d reported but never selected", s.label, fb.Round, r.ID)
		case s.sync && r.Staleness != 0:
			s.t.Errorf("%s round %d: sync party %d reported staleness %d", s.label, fb.Round, r.ID, r.Staleness)
		case r.Staleness < 0:
			s.t.Errorf("%s round %d: party %d reported staleness %d", s.label, fb.Round, r.ID, r.Staleness)
		case (r.Update != nil) != s.wantUpdates:
			s.t.Errorf("%s round %d: party %d update present = %v, want %v", s.label, fb.Round, r.ID, r.Update != nil, s.wantUpdates)
		}
		seen[r.ID] = true
		lossSum += r.MeanLoss
	}
	mean := 0.0
	if n := len(fb.Completed); n > 0 {
		mean = lossSum / float64(n)
	}
	s.means = append(s.means, mean)
	s.reports += len(fb.Completed)
	s.inner.Observe(fb)
}

// TestReportContract pins what a selector may rely on in
// RoundFeedback.Completed, under every policy, with and without an
// update-consuming selector and with and without masking: report IDs are
// duplicate-free, disjoint from Stragglers and drawn from Selected (this
// round's under sync; under the async policies a report can arrive rounds
// after its party was selected); Staleness is 0 under sync; Update is nil
// exactly when the selector does not consume updates or masking is on; and
// every evaluated RoundStats.MeanLoss is the mean of its cycle's report
// losses, summed in report order.
func TestReportContract(t *testing.T) {
	t.Parallel()
	for _, policy := range []AggregationPolicy{SyncRounds{}, Buffered{K: 3}, SemiSync{}} {
		for _, needUpdates := range []bool{false, true} {
			for _, mask := range []bool{false, true} {
				label := fmt.Sprintf("%T needUpdates=%v mask=%v", policy, needUpdates, mask)
				_, sync := policy.(SyncRounds)
				cfg := determinismConfig(t, 31, 0)
				if !sync {
					cfg = asyncDeviceConfig(t, 31, 0, policy)
				}
				cfg.EvalEvery = 1
				if mask {
					cfg.Privacy = PrivacyConfig{Mask: true, Clip: 1, ShareThreshold: 2}
				}
				spy := &reportSpy{
					inner: cfg.Selector, t: t, label: label, needUpdates: needUpdates,
					wantUpdates: needUpdates && !mask, sync: sync, ever: map[int]bool{},
				}
				cfg.Selector = spy
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if spy.reports == 0 {
					t.Fatalf("%s: no party ever reported", label)
				}
				for _, h := range res.History {
					if want := spy.means[h.Round-1]; !bitsEqual(h.MeanLoss, want) {
						t.Errorf("%s round %d: MeanLoss %v, want the report mean %v", label, h.Round, h.MeanLoss, want)
					}
				}
			}
		}
	}
}
