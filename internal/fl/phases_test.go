package fl

import (
	"fmt"
	"testing"
	"time"
)

// TestPhasesLeaveResultUntouched pins the phase probe: a probed Run returns
// the unprobed Result bit for bit — history, final parameters and all —
// under every policy, masked and plain, at widths 1 and 2. Its engine columns
// never nest, so they sum to at most the run's wall time, and the evaluator's
// score column fits in it too; the columns a run's policy has are non-zero,
// and settling is charged only where there are mask waves to settle.
func TestPhasesLeaveResultUntouched(t *testing.T) {
	jobs := []struct {
		name   string
		masked bool
		config func(width int) Config
	}{
		{"sync", false, func(w int) Config { return determinismConfig(t, 71, w) }},
		{"buffered", false, func(w int) Config { return asyncConfig(t, 72, w, Buffered{K: 3, StalenessHalfLife: 2}) }},
		{"semisync", false, func(w int) Config { return asyncConfig(t, 73, w, SemiSync{StalenessHalfLife: 2}) }},
		{"masked-sync", true, func(w int) Config {
			cfg := privacySyncConfig(t)
			cfg.Parallelism = w
			return cfg
		}},
		{"masked-buffered", true, func(w int) Config {
			cfg := asyncConfig(t, 74, w, Buffered{K: 3})
			cfg.Optimizer = &FedAvg{ServerLR: 1}
			cfg.Privacy = PrivacyConfig{Mask: true, Clip: 1}
			return cfg
		}},
	}
	for _, job := range jobs {
		for _, width := range []int{1, 2} {
			what := fmt.Sprintf("%s width %d", job.name, width)
			want, err := Run(job.config(width))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			cfg := job.config(width)
			cfg.Phases = new(Phases)
			start := time.Now()
			got, err := Run(cfg)
			wall := time.Since(start)
			if err != nil {
				t.Fatalf("%s probed: %v", what, err)
			}
			requireIdenticalResults(t, want, got)

			p := cfg.Phases
			var engine time.Duration
			for ph, d := range p {
				if Phase(ph) != PhaseScore {
					engine += d
				}
			}
			if engine > wall || p[PhaseScore] > wall {
				t.Fatalf("%s: engine phases %v and score %v, but the run took %v (%v)", what, engine, p[PhaseScore], wall, p)
			}
			for _, ph := range []Phase{PhaseSelect, PhaseTrain, PhaseFold, PhaseObserve, PhaseHandoff, PhaseScore} {
				if p[ph] <= 0 {
					t.Fatalf("%s: no time in %s (%v)", what, ph, p)
				}
			}
			if settled := p[PhaseSettle] > 0; settled != job.masked {
				t.Fatalf("%s: settle %v on a run that masks: %v", what, p[PhaseSettle], job.masked)
			}
		}
	}
}

// TestNilPhasesReadNoClock pins the probe's off state: a nil probe hands out
// the zero time instead of reading the clock, and charges nothing.
func TestNilPhasesReadNoClock(t *testing.T) {
	var p *Phases
	if t0 := p.start(); !t0.IsZero() {
		t.Fatalf("a nil probe read the clock: %v", t0)
	}
	p.stop(PhaseScore, time.Now()) // must not panic
	if allocs := testing.AllocsPerRun(100, func() { p.stop(PhaseTrain, p.start()) }); allocs != 0 {
		t.Fatalf("a nil probe allocated %v times", allocs)
	}
}
