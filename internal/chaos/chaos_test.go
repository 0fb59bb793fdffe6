package chaos

import (
	"testing"

	"flips/internal/dataset"
	"flips/internal/tensor"
)

func TestSpecValidate(t *testing.T) {
	t.Parallel()
	if err := (Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec rejected: %v", err)
	}
	good := Spec{Regions: 4, OutageProb: 0.3, OutageLen: 5, DegradedProb: 0.2,
		SurgeEvery: 10, SurgeLen: 2, SurgeFactor: 3, FaultFraction: 0.2, Fault: FaultByzantine}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, bad := range map[string]Spec{
		"negative regions":   {Regions: -1},
		"outage prob > 1":    {OutageProb: 1.5},
		"negative outage":    {OutageProb: -0.1},
		"probs exceed 1":     {OutageProb: 0.7, DegradedProb: 0.5},
		"negative window":    {OutageLen: -2},
		"negative surge":     {SurgeEvery: -1},
		"surge len > period": {SurgeEvery: 3, SurgeLen: 5},
		"bad surge factor":   {SurgeEvery: 5, SurgeFactor: -2},
		"fraction > 1":       {FaultFraction: 2},
		"bad fault model":    {Fault: FaultModel(99)},
		"bad fault scale":    {FaultScale: -3},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestInjectorPureFunctions pins the determinism contract: every hook is a
// pure function of its arguments, so two injectors from the same spec agree
// on every (round, party) query regardless of query order.
func TestInjectorPureFunctions(t *testing.T) {
	t.Parallel()
	spec := Spec{Seed: 7, Regions: 4, OutageProb: 0.4, OutageLen: 3, DegradedProb: 0.3,
		SurgeEvery: 5, SurgeLen: 2, SurgeFactor: 2, FaultFraction: 0.25, Fault: FaultByzantine, FaultScale: 5}
	const parties = 20
	a, err := New(spec, parties)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(spec, parties)
	if err != nil {
		t.Fatal(err)
	}
	// Query a forward, b backward: results must agree point-for-point.
	for round := 0; round < 30; round++ {
		for id := 0; id < parties; id++ {
			rr, ri := 29-round, parties-1-id
			if a.ForceOffline(rr, ri) != b.ForceOffline(rr, ri) {
				t.Fatalf("ForceOffline(%d,%d) disagrees", rr, ri)
			}
			if a.LatencyFactor(round, id) != b.LatencyFactor(round, id) {
				t.Fatalf("LatencyFactor(%d,%d) disagrees", round, id)
			}
			if a.CohortTarget(round, 12) != b.CohortTarget(round, 12) {
				t.Fatalf("CohortTarget(%d) disagrees", round)
			}
			if a.Corrupts(id) != b.Corrupts(id) {
				t.Fatalf("Corrupts(%d) disagrees", id)
			}
		}
	}
	// Byzantine corruption replaces the delta from a per-(round, party)
	// stream: identical across injectors and across repeated calls.
	d1, d2 := tensor.NewVec(8), tensor.NewVec(8)
	a.CorruptDelta(3, 5, d1)
	b.CorruptDelta(3, 5, d2)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("byzantine delta differs at %d: %v != %v", i, d1[i], d2[i])
		}
	}
	var nonzero bool
	for _, v := range d1 {
		nonzero = nonzero || v != 0
	}
	if !nonzero {
		t.Fatal("byzantine corruption left the delta at zero")
	}
}

// TestRegionalOutageCorrelation pins the regional structure: within one
// outage window, every party of a region shares the same fate, and region
// boundaries follow the shard arithmetic id·Regions/parties.
func TestRegionalOutageCorrelation(t *testing.T) {
	t.Parallel()
	const parties, regions = 24, 4
	in, err := New(Spec{Seed: 3, Regions: regions, OutageProb: 0.5, OutageLen: 2}, parties)
	if err != nil {
		t.Fatal(err)
	}
	sawOut := false
	for round := 0; round < 40; round++ {
		for id := 0; id < parties; id++ {
			want := in.ForceOffline(round, (in.Region(id)*parties+regions-1)/regions) // region's first party
			if got := in.ForceOffline(round, id); got != want {
				t.Fatalf("round %d: party %d (region %d) disagrees with its region", round, id, in.Region(id))
			}
			sawOut = sawOut || in.ForceOffline(round, id)
		}
		// Windows of length 2: consecutive rounds in one window agree.
		if round%2 == 0 {
			for id := 0; id < parties; id++ {
				if in.ForceOffline(round, id) != in.ForceOffline(round+1, id) {
					t.Fatalf("round %d: outage flipped inside a window", round)
				}
			}
		}
	}
	if !sawOut {
		t.Fatal("no outage in 40 rounds at probability 0.5")
	}
	if in.Region(0) != 0 || in.Region(parties-1) != regions-1 {
		t.Fatalf("region bounds wrong: %d, %d", in.Region(0), in.Region(parties-1))
	}
}

func TestCohortTargetSurge(t *testing.T) {
	t.Parallel()
	in, err := New(Spec{SurgeEvery: 5, SurgeLen: 2, SurgeFactor: 3}, 30)
	if err != nil {
		t.Fatal(err)
	}
	for round, want := range []int{30, 30, 10, 10, 10, 30, 30, 10} {
		if got := in.CohortTarget(round, 10); got != want {
			t.Fatalf("CohortTarget(round %d) = %d, want %d", round, got, want)
		}
	}
	clean, err := New(Spec{}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if got := clean.CohortTarget(0, 10); got != 10 {
		t.Fatalf("clean CohortTarget = %d", got)
	}
}

func TestFaultyPartiesAndLabelFlips(t *testing.T) {
	t.Parallel()
	const parties, classes = 40, 5
	in, err := New(Spec{Seed: 11, FaultFraction: 0.25, Fault: FaultLabelFlip}, parties)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for id, bad := range in.faulty {
		if bad {
			ids = append(ids, id)
		}
	}
	if len(ids) != 10 {
		t.Fatalf("faulty count %d, want 10", len(ids))
	}
	// Label flips move every label to a different in-range class,
	// deterministically, and only for faulty parties.
	mk := func() []dataset.Sample {
		s := make([]dataset.Sample, 30)
		for i := range s {
			s[i].Y = i % classes
		}
		return s
	}
	faulty, clean := ids[0], -1
	for id := 0; id < parties; id++ {
		if !in.faulty[id] {
			clean = id
			break
		}
	}
	s1, s2 := mk(), mk()
	in.FlipLabels(faulty, s1, classes)
	in.FlipLabels(faulty, s2, classes)
	changed := 0
	for i := range s1 {
		if s1[i].Y != s2[i].Y {
			t.Fatal("label flips not deterministic")
		}
		if s1[i].Y < 0 || s1[i].Y >= classes {
			t.Fatalf("flipped label %d out of range", s1[i].Y)
		}
		if s1[i].Y == i%classes {
			t.Fatalf("sample %d label unchanged", i)
		}
		changed++
	}
	if changed != len(s1) {
		t.Fatal("label-flip fault left labels untouched")
	}
	cs := mk()
	in.FlipLabels(clean, cs, classes)
	for i := range cs {
		if cs[i].Y != i%classes {
			t.Fatal("clean party's labels were flipped")
		}
	}
	// Label flips are a data fault: no update corruption.
	if in.Corrupts(faulty) {
		t.Fatal("label-flip model reports update corruption")
	}
}

func TestCorruptDeltaModels(t *testing.T) {
	t.Parallel()
	base := Spec{Seed: 5, FaultFraction: 1, FaultScale: 4}

	scaled := base
	scaled.Fault = FaultScaled
	in, err := New(scaled, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := tensor.Vec{1, -2, 3}
	in.CorruptDelta(0, 0, d)
	if d[0] != 4 || d[1] != -8 || d[2] != 12 {
		t.Fatalf("scaled delta = %v", d)
	}
	if !in.Corrupts(0) {
		t.Fatal("scaled model does not corrupt")
	}

	flip := base
	flip.Fault = FaultSignFlip
	in, err = New(flip, 4)
	if err != nil {
		t.Fatal(err)
	}
	d = tensor.Vec{1, -2, 3}
	in.CorruptDelta(0, 0, d)
	if d[0] != -1 || d[1] != 2 || d[2] != -3 {
		t.Fatalf("sign-flipped delta = %v", d)
	}

	byz := base
	byz.Fault = FaultByzantine
	in, err = New(byz, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tensor.Vec{1, 2, 3}, tensor.Vec{9, 9, 9}
	in.CorruptDelta(2, 1, a)
	in.CorruptDelta(2, 1, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("byzantine noise depends on the pre-corruption delta")
		}
	}
}

func TestFaultModelNames(t *testing.T) {
	t.Parallel()
	for _, m := range []FaultModel{FaultNone, FaultLabelFlip, FaultScaled, FaultSignFlip, FaultByzantine} {
		parsed, err := FaultModelByName(m.String())
		if err != nil || parsed != m {
			t.Fatalf("round-trip %v: %v, %v", m, parsed, err)
		}
	}
	if _, err := FaultModelByName("meteor"); err == nil {
		t.Fatal("unknown fault model accepted")
	}
	if m, err := FaultModelByName(""); err != nil || m != FaultNone {
		t.Fatalf("empty name: %v, %v", m, err)
	}
}

func TestParseMatrix(t *testing.T) {
	t.Parallel()
	if err := DefaultMatrix().Validate(); err != nil {
		t.Fatalf("default matrix invalid: %v", err)
	}
	m, err := ParseMatrix([]byte(`{
		"faults": [
			{"name": "clean", "spec": {}},
			{"name": "byz", "spec": {"faultFraction": 0.2, "fault": "byzantine", "seed": 3}}
		],
		"folds": ["mean", "median"],
		"strategies": ["random"]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Faults) != 2 || m.Faults[1].Spec.Fault != FaultByzantine || m.Faults[1].Spec.Seed != 3 {
		t.Fatalf("matrix misparsed: %+v", m)
	}
	// Omitted folds/strategies/faults fall back to defaults.
	m, err = ParseMatrix([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Faults) == 0 || len(m.Folds) == 0 || len(m.Strategies) == 0 {
		t.Fatalf("defaults not filled: %+v", m)
	}
	// BOM-prefixed documents parse (same satellite class as device traces).
	if _, err := ParseMatrix([]byte("\xef\xbb\xbf{}")); err != nil {
		t.Fatalf("BOM-prefixed matrix rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"unknown field":   `{"faults": [{"name": "a", "spec": {"volcano": 1}}]}`,
		"trailing data":   `{} {}`,
		"dup arm":         `{"faults": [{"name": "a", "spec": {}}, {"name": "a", "spec": {}}]}`,
		"empty arm name":  `{"faults": [{"name": "", "spec": {}}]}`,
		"bad spec":        `{"faults": [{"name": "a", "spec": {"outageProb": 2}}]}`,
		"bad fault model": `{"faults": [{"name": "a", "spec": {"fault": "meteor"}}]}`,
		"numeric fault":   `{"faults": [{"name": "a", "spec": {"fault": 2}}]}`,
		"empty fold":      `{"folds": [""]}`,
		"dup strategy":    `{"strategies": ["random", "random"]}`,
		"not json":        `folds: [mean]`,
	} {
		if _, err := ParseMatrix([]byte(bad)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
