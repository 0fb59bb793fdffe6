package fl

import (
	"fmt"
	"strings"
	"time"
)

// Phase names one column of the phase probe.
type Phase int

// The probe's columns. Every one but PhaseScore is time on the engine
// goroutine, and those never nest, so their sum is at most the run's wall
// time; PhaseScore is time on the evaluator goroutine, overlapping them.
const (
	PhaseSelect  Phase = iota // Selector.Select, in selectParties
	PhaseTrain                // each wave's local training: the worker pool, or the transport
	PhaseFold                 // applyFold: fold, noise, optimizer apply
	PhaseSettle               // settleMaskedWaves: settling and decoding mask waves
	PhaseObserve              // Selector.Observe, in Run's epilogue
	PhaseHandoff              // handing snapshots to the evaluator, and joining it at the end
	PhaseScore                // the evaluator scoring snapshots on the test set
	numPhases
)

var phaseNames = [numPhases]string{"select", "train", "fold", "settle", "observe", "handoff", "score"}

func (p Phase) String() string { return phaseNames[p] }

// Phases is the phase probe: wall-clock time accumulated per Phase over one
// Run, set as Config.Phases and read after Run returns. The evaluator writes
// PhaseScore before Run's join, as it writes the History, and the engine
// writes the rest. A Run whose Config.Phases is nil reads no clock for it
// and allocates nothing. Every Result bit is the same with or without it.
type Phases [numPhases]time.Duration

// start returns the time now on a probed run, and the zero time otherwise.
func (p *Phases) start() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// stop adds the time since t0 to phase ph on a probed run.
func (p *Phases) stop(ph Phase, t0 time.Time) {
	if p != nil {
		p[ph] += time.Since(t0)
	}
}

// String renders every column in milliseconds, engine phases first:
// "select 12.34 ms, train 45.67 ms, …, score 78.90 ms".
func (p *Phases) String() string {
	var b strings.Builder
	for ph, d := range p {
		if ph > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.2f ms", Phase(ph), float64(d)/float64(time.Millisecond))
	}
	return b.String()
}
