// Package device models the system heterogeneity of an FL fleet: per-party
// compute speed, network bandwidth and an availability process.
//
// The FLIPS paper emulates stragglers by dropping a flat 10–20% of each
// round's invited parties (§5). The selectors it compares against, however,
// are built around *system* heterogeneity — Oort's systemic-utility term and
// TiFL's latency tiers both feed on per-party training durations. This
// package supplies that signal: every party gets a Device whose simulated
// round wall-clock (local compute + model transfer) determines which invited
// parties miss a configurable deadline, and whose availability process
// (always-on, Bernoulli churn, or a diurnal sine trace) determines which
// parties are reachable at all. The engine aggregates per-round durations
// into simulated time, which makes time-to-target-accuracy a first-class
// metric alongside rounds-to-target.
//
// Determinism contract: device draws are pure functions of an explicitly
// passed *rng.Source. Fleet construction pre-splits one child stream per
// party in ID order, and per-round availability draws use per-party streams
// split from the round's source, so a fleet and its availability trace are
// bit-reproducible from a single seed regardless of engine parallelism.
package device

import (
	"fmt"
	"math"

	"flips/internal/fmath"
	"flips/internal/rng"
)

// Kind selects the availability process of a fleet.
type Kind int

const (
	// AlwaysOn parties are reachable every round (the paper's implicit
	// setting: only stragglers, never absentees).
	AlwaysOn Kind = iota
	// Churn parties are independently online each round with probability
	// OnlineProb — the memoryless device churn of cross-device FL.
	Churn
	// Diurnal parties follow a sine-shaped online probability over rounds
	// with a per-party phase offset, emulating day/night charging-and-idle
	// cycles across time zones.
	Diurnal
	// Trace parties replay a recorded real-world availability trace
	// (Availability.Trace), mapped onto parties deterministically by party
	// ID (party p replays trace row p mod devices).
	Trace
)

// String names the availability kind.
func (k Kind) String() string {
	switch k {
	case AlwaysOn:
		return "always-on"
	case Churn:
		return "churn"
	case Diurnal:
		return "diurnal"
	case Trace:
		return "trace"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// KindByName parses an availability kind name ("always-on", "churn",
// "diurnal", "trace"); the empty string means AlwaysOn. A Trace kind
// additionally needs Availability.Trace set to a loaded TraceSet.
func KindByName(name string) (Kind, error) {
	switch name {
	case "", "always-on":
		return AlwaysOn, nil
	case "churn":
		return Churn, nil
	case "diurnal":
		return Diurnal, nil
	case "trace":
		return Trace, nil
	default:
		return AlwaysOn, fmt.Errorf("device: unknown availability %q (valid: always-on, churn, diurnal, trace)", name)
	}
}

// Availability configures a fleet's availability process.
type Availability struct {
	// Kind selects the process.
	Kind Kind
	// OnlineProb is the per-round online probability under Churn
	// (default 0.85).
	OnlineProb float64
	// Period is the diurnal cycle length in rounds (default 24).
	Period float64
	// MinProb / MaxProb bound the diurnal online probability
	// (defaults 0.15 and 1.0).
	MinProb, MaxProb float64
	// Trace is the replayed availability trace under the Trace kind: party
	// p replays row p mod Trace.NumDevices(), round r reads slot r mod the
	// row length. Trace lookups consume no RNG.
	Trace *TraceSet
}

// WithDefaults fills zero fields with the package defaults.
func (a Availability) WithDefaults() Availability {
	if a.OnlineProb == 0 {
		a.OnlineProb = 0.85
	}
	if a.Period == 0 {
		a.Period = 24
	}
	if a.MinProb == 0 {
		a.MinProb = 0.15
	}
	if a.MaxProb == 0 {
		a.MaxProb = 1.0
	}
	return a
}

// The fleet's median device: training throughput in samples/second and
// download/upload bandwidths in bytes/second, asymmetric like real last-mile
// links.
const (
	computeMedian = 200
	downMedian    = 256 * 1024
	upMedian      = 64 * 1024
)

// Config describes the fleet-level heterogeneity distributions devices are
// drawn from. Compute speed and bandwidths are lognormal around the fleet
// medians: value = median · exp(sigma·N(0,1)), giving the heavy tail of slow
// devices real cross-device fleets exhibit; sigma 0 pins every device to the
// median.
type Config struct {
	// ComputeSigma is the lognormal spread of compute speed (default 0,
	// i.e. homogeneous).
	ComputeSigma float64
	// DownSigma / UpSigma are the lognormal spreads of the bandwidths
	// (default 0).
	DownSigma, UpSigma float64
	// Availability configures the fleet's availability process.
	Availability Availability
}

// WithDefaults fills zero fields with the package defaults.
func (c Config) WithDefaults() Config {
	c.Availability = c.Availability.WithDefaults()
	return c
}

// Validate rejects non-physical configurations.
func (c Config) Validate() error {
	cfg := c.WithDefaults()
	if cfg.ComputeSigma < 0 || cfg.DownSigma < 0 || cfg.UpSigma < 0 {
		return fmt.Errorf("device: negative sigma")
	}
	a := cfg.Availability
	if a.OnlineProb < 0 || a.OnlineProb > 1 {
		return fmt.Errorf("device: churn online probability %v out of [0,1]", a.OnlineProb)
	}
	if a.MinProb < 0 || a.MaxProb > 1 || a.MinProb > a.MaxProb {
		return fmt.Errorf("device: diurnal probability band [%v,%v] invalid", a.MinProb, a.MaxProb)
	}
	if a.Period <= 0 {
		return fmt.Errorf("device: non-positive diurnal period %v", a.Period)
	}
	if a.Kind == Trace && a.Trace == nil {
		return fmt.Errorf("device: trace availability configured without a loaded trace")
	}
	return nil
}

// Uniform returns a homogeneous always-on fleet configuration: every device
// trains at the median speed on the median link. Useful as a control arm —
// under it, deadline stragglers and time-to-accuracy differences vanish.
func Uniform() Config {
	return Config{}.WithDefaults()
}

// Lognormal returns the default heterogeneous fleet: heavy-tailed compute
// (sigma 0.8 ≈ 5x spread between p10 and p90 devices) and moderately spread
// bandwidths (sigma 0.5), always-on.
func Lognormal() Config {
	c := Config{ComputeSigma: 0.8, DownSigma: 0.5, UpSigma: 0.5}
	return c.WithDefaults()
}

// Device is one party's simulated platform profile.
type Device struct {
	// ComputeSpeed is the training throughput in samples/second.
	ComputeSpeed float64
	// DownBps / UpBps are download/upload bandwidths in bytes/second.
	DownBps, UpBps float64
	// Avail is the availability process (shared fleet-wide shape,
	// per-device phase).
	Avail Availability
	// Phase is this device's diurnal phase offset in [0,1) cycles.
	Phase float64
	// TraceRow is the availability-trace row this device replays under the
	// Trace kind — the owning party's ID, wrapped by the TraceSet at lookup
	// time. Assigned structurally (no RNG) by NewForParty.
	TraceRow int
}

// NewForParty draws one device from cfg for the party with the given ID. The
// draw order (compute, down, up, phase) is fixed — part of the determinism
// contract. The ID binds trace-kind devices to their availability-trace row and
// nothing else, so trace and non-trace fleets built from the same streams
// share compute/bandwidth profiles.
func NewForParty(cfg Config, id int, r *rng.Source) *Device {
	cfg = cfg.WithDefaults()
	d := &Device{
		ComputeSpeed: lognormal(computeMedian, cfg.ComputeSigma, r),
		DownBps:      lognormal(downMedian, cfg.DownSigma, r),
		UpBps:        lognormal(upMedian, cfg.UpSigma, r),
		Avail:        cfg.Availability,
		TraceRow:     id,
	}
	if cfg.Availability.Kind == Diurnal {
		d.Phase = r.Float64()
	}
	return d
}

func lognormal(median, sigma float64, r *rng.Source) float64 {
	if sigma <= 0 {
		return median
	}
	return median * fmath.Exp(sigma*r.NormFloat64())
}

// OnlineProb returns the device's online probability at the given round —
// deterministic, with no RNG consumption.
func (d *Device) OnlineProb(round int) float64 {
	switch d.Avail.Kind {
	case Churn:
		return d.Avail.OnlineProb
	case Diurnal:
		mid := (d.Avail.MinProb + d.Avail.MaxProb) / 2
		amp := (d.Avail.MaxProb - d.Avail.MinProb) / 2
		return float64(mid) + float64(amp*fmath.Sin(2*math.Pi*(float64(round)/d.Avail.Period+d.Phase)))
	case Trace:
		if d.Avail.Trace.Online(d.TraceRow, round) {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// Online reports whether the device is reachable at the given round, drawing
// at most one uniform variate from r. Callers pass a per-party per-round
// stream so the trace is independent of evaluation order.
func (d *Device) Online(round int, r *rng.Source) bool {
	p := d.OnlineProb(round)
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return r.Float64() < p
}

// LatencyAt returns the device's duration multiplier at the given round:
// the trace slot's latency value under the Trace kind (brownouts and
// speedups recorded alongside availability), 1 everywhere else.
// Deterministic, with no RNG consumption.
func (d *Device) LatencyAt(round int) float64 {
	if d.Avail.Kind == Trace {
		return d.Avail.Trace.Latency(d.TraceRow, round)
	}
	return 1
}

// RoundDuration returns the simulated wall-clock seconds this device needs
// for one FL round: download the global model, train epochs passes over
// samples local examples, upload the update. Model transfers are modelBytes
// in each direction.
func (d *Device) RoundDuration(samples, epochs int, modelBytes int64) float64 {
	if epochs <= 0 {
		epochs = 1
	}
	var t float64
	if d.ComputeSpeed > 0 {
		t += float64(samples*epochs) / d.ComputeSpeed
	}
	if d.DownBps > 0 {
		t += float64(modelBytes) / d.DownBps
	}
	if d.UpBps > 0 {
		t += float64(modelBytes) / d.UpBps
	}
	return t
}
