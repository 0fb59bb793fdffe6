package device

import (
	"math"
	"testing"

	"flips/internal/rng"
)

func TestKindNames(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		kind Kind
	}{
		{"", AlwaysOn},
		{"always-on", AlwaysOn},
		{"churn", Churn},
		{"diurnal", Diurnal},
	} {
		k, err := KindByName(tc.name)
		if err != nil {
			t.Fatalf("KindByName(%q): %v", tc.name, err)
		}
		if k != tc.kind {
			t.Fatalf("KindByName(%q) = %v, want %v", tc.name, k, tc.kind)
		}
	}
	if _, err := KindByName("sometimes"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if AlwaysOn.String() != "always-on" || Churn.String() != "churn" || Diurnal.String() != "diurnal" {
		t.Fatal("kind string names changed")
	}
	if Kind(99).String() == "" {
		t.Fatal("out-of-range kind renders empty")
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	t.Parallel()
	c := Config{}.WithDefaults()
	if c.Availability.OnlineProb != 0.85 || c.Availability.Period != 24 {
		t.Fatalf("availability defaults %+v", c.Availability)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	if err := Uniform().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Lognormal().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{ComputeSigma: -0.5},
		{Availability: Availability{Kind: Churn, OnlineProb: 1.5}},
		{Availability: Availability{Kind: Diurnal, MinProb: 0.9, MaxProb: 0.2}},
		{Availability: Availability{Kind: Diurnal, Period: -3}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, b)
		}
	}
}

func TestUniformFleetIsHomogeneous(t *testing.T) {
	t.Parallel()
	fleet := drawFleet(8, Uniform(), rng.New(1))
	for i, d := range fleet {
		if d.ComputeSpeed != 200 || d.DownBps != 256*1024 || d.UpBps != 64*1024 {
			t.Fatalf("device %d not at medians: %+v", i, d)
		}
		if !d.Online(3, rng.New(9)) {
			t.Fatalf("always-on device %d offline", i)
		}
		if d.OnlineProb(100) != 1 {
			t.Fatalf("always-on device %d prob %v", i, d.OnlineProb(100))
		}
	}
}

func TestLognormalFleetIsHeterogeneousAndDeterministic(t *testing.T) {
	t.Parallel()
	a := drawFleet(32, Lognormal(), rng.New(7))
	b := drawFleet(32, Lognormal(), rng.New(7))
	distinct := map[float64]bool{}
	for i := range a {
		if a[i].ComputeSpeed != b[i].ComputeSpeed || a[i].DownBps != b[i].DownBps || a[i].UpBps != b[i].UpBps {
			t.Fatalf("device %d differs across identically seeded fleets", i)
		}
		if a[i].ComputeSpeed <= 0 || a[i].DownBps <= 0 || a[i].UpBps <= 0 {
			t.Fatalf("device %d non-positive draw: %+v", i, a[i])
		}
		distinct[a[i].ComputeSpeed] = true
	}
	if len(distinct) < 16 {
		t.Fatalf("lognormal fleet has only %d distinct speeds", len(distinct))
	}
	c := drawFleet(32, Lognormal(), rng.New(8))
	same := 0
	for i := range a {
		if a[i].ComputeSpeed == c[i].ComputeSpeed {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical fleets")
	}
}

func TestChurnOnlineFrequencyMatchesProb(t *testing.T) {
	t.Parallel()
	cfg := Uniform()
	cfg.Availability = Availability{Kind: Churn, OnlineProb: 0.3}
	d := NewForParty(cfg, 0, rng.New(3))
	r := rng.New(11)
	online := 0
	const rounds = 4000
	for round := 0; round < rounds; round++ {
		if d.Online(round, r.Split(uint64(round)+1)) {
			online++
		}
	}
	frac := float64(online) / rounds
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("churn(0.3) online fraction %v", frac)
	}
}

func TestDiurnalProbBandAndPeriodicity(t *testing.T) {
	t.Parallel()
	cfg := Uniform()
	cfg.Availability = Availability{Kind: Diurnal, Period: 24, MinProb: 0.2, MaxProb: 0.9}
	d := NewForParty(cfg, 0, rng.New(5))
	var lo, hi float64 = 1, 0
	for round := 0; round < 48; round++ {
		p := d.OnlineProb(round)
		if p < 0.2-1e-9 || p > 0.9+1e-9 {
			t.Fatalf("round %d prob %v outside [0.2,0.9]", round, p)
		}
		lo = math.Min(lo, p)
		hi = math.Max(hi, p)
		if got := d.OnlineProb(round + 24); math.Abs(got-p) > 1e-9 {
			t.Fatalf("round %d prob %v not periodic (round+24: %v)", round, p, got)
		}
	}
	if hi-lo < 0.5 {
		t.Fatalf("diurnal trace barely varies: [%v, %v]", lo, hi)
	}
	// Distinct parties get distinct phases.
	fleet := drawFleet(8, cfg, rng.New(6))
	phases := map[float64]bool{}
	for _, dev := range fleet {
		phases[dev.Phase] = true
	}
	if len(phases) < 6 {
		t.Fatalf("only %d distinct diurnal phases in a fleet of 8", len(phases))
	}
}

func TestRoundDuration(t *testing.T) {
	t.Parallel()
	d := &Device{ComputeSpeed: 100, DownBps: 1000, UpBps: 500}
	// 200 samples × 2 epochs / 100 samples/s = 4s; 1000B down = 1s; up = 2s.
	if got := d.RoundDuration(200, 2, 1000); math.Abs(got-7) > 1e-12 {
		t.Fatalf("duration %v, want 7", got)
	}
	// Zero epochs clamps to one epoch.
	if got := d.RoundDuration(100, 0, 0); math.Abs(got-1) > 1e-12 {
		t.Fatalf("zero-epoch duration %v, want 1", got)
	}
	// Slower device takes strictly longer on the same workload.
	slow := &Device{ComputeSpeed: 10, DownBps: 1000, UpBps: 500}
	if slow.RoundDuration(200, 2, 1000) <= d.RoundDuration(200, 2, 1000) {
		t.Fatal("slow device not slower")
	}
}

func TestOnlineDegenerateProbsConsumeNoRandomness(t *testing.T) {
	t.Parallel()
	cfg := Uniform()
	cfg.Availability = Availability{Kind: Churn, OnlineProb: 1}
	d := NewForParty(cfg, 0, rng.New(2))
	r := rng.New(3)
	before := r.Uint64()
	r2 := rng.New(3)
	if !d.Online(0, r2) {
		t.Fatal("p=1 device offline")
	}
	// The stream must be untouched: next draw matches the fresh stream's first.
	if r2.Uint64() != before {
		t.Fatal("p=1 Online consumed randomness")
	}
}

// drawFleet draws n devices the way fl.AttachDevices does: party i's from
// NewForParty over its own pre-split child stream r.Split(i+1).
func drawFleet(n int, cfg Config, r *rng.Source) []*Device {
	out := make([]*Device, n)
	for i := range out {
		out[i] = NewForParty(cfg, i, r.Split(uint64(i)+1))
	}
	return out
}
