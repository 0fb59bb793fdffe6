package experiment

import (
	"fmt"
	"math"

	"flips/internal/chaos"
	"flips/internal/device"
	"flips/internal/fl"
)

// The four time-to-target-accuracy sweeps beyond the paper's grid, each one
// declaration for Sweep.Run. All report simulated wall-clock to the target —
// the metric rounds-to-target hides, because a strategy that needs few rounds
// can still lose wall-clock by waiting on slow parties every round.

// hetStrategies are the selectors the heterogeneity and async sweeps compare.
var hetStrategies = []string{StrategyFLIPS, StrategyOort, StrategyRandom}

// hetSweep goes beyond the paper's flat straggler drop: FLIPS vs Oort vs
// Random over a lognormal compute/bandwidth fleet under three availability
// processes × three round deadlines. The availability arms are the paper's
// implicit always-on fleet, memoryless churn, and a diurnal day/night trace
// whose period spans a quarter of the round budget. The medians of
// device.Lognormal() put a ~100-sample party near 0.55s/round, so the 1s
// deadline cuts deep into the slow tail and 3s drops only extreme outliers;
// 0 waits for every online party.
func hetSweep(o Options) (Sweep, error) {
	base := ecgBase(0.3, 0.20, o.Seed)
	rounds := RoundsFor(base.Spec, o.Scale)
	s := Sweep{
		Title: []string{
			fmt.Sprintf("Device heterogeneity sweep: %s — time to attain target accuracy, FL algorithm: fedyogi", base.Spec.Name),
			fmt.Sprintf("Target balanced accuracy: %.0f%%, rounds threshold: %d, fleet: lognormal compute+bandwidth", 100*base.TargetAccuracy, rounds),
		},
		RowHead: []string{"availability", "deadline"},
		Base:    base,
		Rounds:  rounds,
		Cols:    strategyArms(hetStrategies...),
		Fields:  []Field{fieldTTA, fieldRTT(" rtt", rounds)},
	}
	for _, sc := range []struct {
		name  string
		avail device.Availability
	}{
		{"always-on", device.Availability{Kind: device.AlwaysOn}},
		{"churn-80%", churn80},
		{"diurnal", device.Availability{Kind: device.Diurnal, Period: math.Max(float64(rounds)/4, 4), MinProb: 0.25, MaxProb: 1.0}},
	} {
		fleet := lognormalFleet(sc.avail)
		for _, deadline := range []float64{0, 3, 1} {
			label := "none"
			if deadline > 0 {
				label = fmt.Sprintf("%.0fs", deadline)
			}
			s.Rows = append(s.Rows, Arm{Labels: []string{sc.name, label},
				Patch: func(st *Setting) { st.Device, st.Deadline = fleet, deadline }})
		}
	}
	return s, nil
}

// asyncSweep compares the engine's three aggregation policies — the paper's
// synchronous rounds, FedBuff-style buffered aggregation and semi-synchronous
// deadline windows — crossing the async modes with two staleness half-lives.
// Rounds count aggregation steps in every mode and the event clock is shared,
// so the table answers what the synchronous-only evaluation cannot: how much
// simulated wall-clock decoupling the server from its slowest devices buys
// each selector. The 1s semi-sync window admits the median device but forces
// the slow tail to carry over; buffered uses the engine's default K (half the
// cohort). Half-life 1 discounts a one-version-stale update to 50% weight
// (aggressive), 4 to ~84% (lenient). o.Trace, when set, replays a real-world
// availability trace instead of the default 80% churn.
func asyncSweep(o Options) (Sweep, error) {
	base := ecgBase(0.3, 0.20, o.Seed)
	rounds := RoundsFor(base.Spec, o.Scale)
	avail, availName := churn80, "churn-80%"
	if o.Trace != nil {
		avail = device.Availability{Kind: device.Trace, Trace: o.Trace}
		availName = fmt.Sprintf("trace (%d devices)", o.Trace.NumDevices())
	}
	base.Device = lognormalFleet(avail)
	s := Sweep{
		Title: []string{
			fmt.Sprintf("Aggregation-mode sweep: %s — time to attain target accuracy, FL algorithm: fedyogi", base.Spec.Name),
			fmt.Sprintf("Target balanced accuracy: %.0f%%, aggregation steps: %d, fleet: lognormal compute+bandwidth, availability: %s",
				100*base.TargetAccuracy, rounds, availName),
		},
		RowHead: []string{"aggregation"},
		Base:    base,
		Rounds:  rounds,
		Cols:    strategyArms(hetStrategies...),
		Fields:  []Field{fieldTTA, fieldRTT(" rtt", rounds)},
	}
	for _, arm := range []struct {
		name, aggregation  string
		halfLife, deadline float64
	}{
		{"sync", "sync", 0, 0},
		{"buffered H=1", "buffered", 1, 0},
		{"buffered H=4", "buffered", 4, 0},
		{"semisync H=1", "semisync", 1, 1},
		{"semisync H=4", "semisync", 4, 1},
	} {
		s.Rows = append(s.Rows, Arm{Labels: []string{arm.name}, Patch: func(st *Setting) {
			st.Aggregation, st.StalenessHalfLife, st.Deadline = arm.aggregation, arm.halfLife, arm.deadline
		}})
	}
	return s, nil
}

// churnBase is the chaos and privacy sweeps' shared setting (so the two
// tables are comparable): half the ECG fleet per round, over a lognormal
// fleet under 80% churn.
func churnBase(seed uint64) Setting {
	base := ecgBase(0.6, 0.5, seed)
	base.Device = lognormalFleet(churn80)
	return base
}

// cleanArm is the fault arm the chaos sweep takes degradation against, and
// the tournament's sanity anchor.
const cleanArm = "clean"

// chaosSweep runs the declarative fault matrix (o.Matrix, default
// chaos.DefaultMatrix): every fault arm — correlated regional outages, flash
// crowds, label flips, byzantine parties, plus a clean control — crossed with
// every aggregation fold and selector, reporting time-to-target and its
// degradation against the clean arm's same (fold, strategy) cell. It answers
// the fault-tolerance question the clean evaluation cannot: which (selector,
// fold) pairs keep converging when the fleet misbehaves, and what that
// robustness costs when nothing goes wrong. The fold is what stands between
// a byzantine minority and the global model: under 20% byzantine parties the
// mean collapses to ~33% accuracy and the coordinate-wise median converges.
func chaosSweep(o Options) (Sweep, error) {
	matrix := o.Matrix
	if matrix == nil {
		matrix = chaos.DefaultMatrix()
	}
	if err := matrix.Validate(); err != nil {
		return Sweep{}, err
	}
	base := churnBase(o.Seed)
	rounds := RoundsFor(base.Spec, o.Scale)
	s := Sweep{
		Title: []string{
			fmt.Sprintf("Chaos fault-matrix sweep: %s — time to attain target accuracy under faults, FL algorithm: fedyogi", base.Spec.Name),
			fmt.Sprintf("Target balanced accuracy: %.0f%%, aggregation steps: %d, fleet: lognormal compute+bandwidth, availability: churn-80%%",
				100*base.TargetAccuracy, rounds),
			"Degradation is time-to-target relative to the clean arm's same (fold, strategy) cell.",
		},
		RowHead:  []string{"fault", "fold"},
		Base:     base,
		Rounds:   rounds,
		Cols:     strategyArms(matrix.Strategies...),
		Fields:   []Field{fieldTTA, fieldRatio(" deg")},
		Counters: []Counter{{"rejected", func(h fl.RoundStats) int { return h.Rejected }}},
		Baseline: cleanArm,
	}
	for _, fault := range matrix.Faults {
		spec := fault.Spec
		for _, fold := range matrix.Folds {
			s.Rows = append(s.Rows, Arm{Labels: []string{fault.Name, fold},
				Patch: func(st *Setting) { st.Chaos, st.Fold = &spec, fold }})
		}
	}
	return s, nil
}

// privacySweep measures what the secure-aggregation middleware costs: each
// rung of the ladder crossed with the selectors. It answers the deployment
// question the plaintext evaluation cannot: how much convergence each rung
// gives up (slowdown against the plaintext arm's same-strategy cell), and how
// often dropout reconstruction falls below threshold and aborts a round
// outright. The ladder: plaintext control, clip only, full masking with
// dropout recovery, and masking with ε=5 Laplace noise on top. The dropouts
// counter is the invited-but-not-folded traffic the Shamir reconstruction
// path absorbed.
func privacySweep(o Options) (Sweep, error) {
	base := churnBase(o.Seed)
	rounds := RoundsFor(base.Spec, o.Scale)
	s := Sweep{
		Title: []string{
			fmt.Sprintf("Privacy-ladder sweep: %s — time to attain target accuracy under secure aggregation, FL algorithm: fedyogi", base.Spec.Name),
			fmt.Sprintf("Target balanced accuracy: %.0f%%, aggregation steps: %d, fleet: lognormal compute+bandwidth, availability: churn-80%%",
				100*base.TargetAccuracy, rounds),
			"Slowdown is time-to-target relative to the plaintext arm's same-strategy cell; aborts count below-threshold rounds.",
		},
		RowHead: []string{"arm"},
		Base:    base,
		Rounds:  rounds,
		Cols:    strategyArms(StrategyRandom, StrategyFLIPS, StrategyOort),
		Fields: []Field{fieldTTA, fieldRatio(" slow"),
			{" aborts", func(c Cell) string { return fmt.Sprint(c.Counts[0]) }}},
		Counters: []Counter{
			{"aborts", func(h fl.RoundStats) int {
				if h.MaskAborted {
					return 1
				}
				return 0
			}},
			{"dropouts", func(h fl.RoundStats) int { return h.Invited - h.Completed }},
		},
		Baseline: "plaintext",
	}
	for _, arm := range []struct {
		name string
		cfg  fl.PrivacyConfig
	}{
		{"plaintext", fl.PrivacyConfig{}},
		{"clip", fl.PrivacyConfig{Clip: 1}},
		{"masked", fl.PrivacyConfig{Mask: true, Clip: 1, ShareThreshold: 2}},
		{"masked+dp", fl.PrivacyConfig{Mask: true, Clip: 1, Epsilon: 5, ShareThreshold: 2}},
	} {
		pc, label := arm.cfg, arm.name
		switch {
		case pc.Mask && pc.Epsilon > 0:
			label = fmt.Sprintf("%s(ε=%g,t=%d)", arm.name, pc.Epsilon, pc.ShareThreshold)
		case pc.Mask:
			label = fmt.Sprintf("%s(t=%d)", arm.name, pc.ShareThreshold)
		case pc.Clip > 0:
			label = fmt.Sprintf("%s(c=%g)", arm.name, pc.Clip)
		}
		s.Rows = append(s.Rows, Arm{Labels: []string{label}, Patch: func(st *Setting) { st.Privacy = pc }})
	}
	return s, nil
}
