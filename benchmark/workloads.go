package main

import (
	"fmt"
	"time"

	"flips"
	"flips/internal/rng"
)

// workload is one named traffic shape. Every job it holds is submitted over
// HTTP exactly as an operator would; the program under test sees nothing but
// these generated configs.
type workload struct {
	name string
	why  string
	// jobs is what one pass submits: a single config for the single-job
	// workloads (a pass is one job, repeated), the whole seeded list for
	// server_mixed (a pass is one window).
	jobs []flips.SimulationConfig
	// mixed marks server_mixed: nproc closed-loop tenants drain the list
	// concurrently instead of one tenant submitting one job at a time.
	mixed bool
	// dist routes jobs through flips.DistRunner over loopback shard workers.
	dist bool
}

// workloadNames is the fixed order every report uses.
var workloadNames = []string{"paper_noniid", "fleet_async", "dist_fleet", "masked_sync", "server_mixed"}

var workloadWhy = map[string]string{
	"paper_noniid": "the paper's setting (femnist, fedyogi, flips, alpha 0.3, 200 parties, 6 repeats): ~86% of fl.Run is model.TrainLocal, so kernel work shows here and nowhere else",
	"fleet_async":  "20k-party buffered oort fleet, 64 shards, one 5000-event stream: three experiment.Build calls, fleet-scale Select (38% of fl.Run), eval and the event core dominate; training is ~6%",
	"dist_fleet":   "the identical fleet_async job through DistRunner and 2 loopback shard workers: isolates the internal/dist + internal/wire seam; results must equal fleet_async",
	"masked_sync":  "secure-aggregation masking on a 40-party sync cohort: >99% of fl.Run is fl/privacy.go + secagg (pair masks, X25519 pair seeds, Shamir); the plaintext folds elsewhere are the controls",
	"server_mixed": "windows of 100 short mixed jobs from nproc closed-loop tenants: per-job fixed costs (decode, Validate, three builds, queue, clustering) and the robust fold dominate; kernels are a minority",
}

// scale sizes the workloads: "full" is the measured benchmark, "smoke" the
// same shapes at toy sizes for `go test`.
type scale struct {
	name string
	// paper_noniid: PaperScale (200 parties, 6 repeats) unless paperParties
	// overrides the fleet.
	paperScale                bool
	paperParties, paperRounds int
	// fleet_async and dist_fleet.
	fleetParties, fleetRounds, fleetShards int
	fleetFraction                          float64
	// masked_sync.
	maskedParties, maskedRounds int
	// server_mixed: jobs per window, and each job's size.
	mixedJobs, mixedParties, mixedRounds int
	// probe bounds each layer probe of a traced run.
	probe time.Duration
}

var scales = map[string]scale{
	"full": {
		name: "full", paperRounds: 105, paperScale: true,
		fleetParties: 20000, fleetRounds: 10000, fleetShards: 64, fleetFraction: 0.0016,
		maskedParties: 200, maskedRounds: 136,
		mixedJobs: 100, mixedParties: 60, mixedRounds: 100,
		probe: 120 * time.Millisecond,
	},
	"smoke": {
		name: "smoke", paperRounds: 4, paperParties: 10,
		fleetParties: 40, fleetRounds: 8, fleetShards: 4, fleetFraction: 0.2,
		maskedParties: 10, maskedRounds: 4,
		mixedJobs: 6, mixedParties: 8, mixedRounds: 4,
		probe: time.Millisecond,
	},
}

// buildWorkload generates the named workload's job list from the seed: the
// same (name, seed, scale, nproc) always yields the same configs.
func buildWorkload(name string, seed uint64, sc scale, nproc int) (workload, error) {
	w := workload{name: name, why: workloadWhy[name]}
	switch name {
	case "paper_noniid":
		w.jobs = []flips.SimulationConfig{{
			Dataset: "femnist", Algorithm: "fedyogi", Strategy: "flips",
			Alpha: 0.3, PartyFraction: 0.2,
			DeviceProfile: "lognormal", Availability: "churn",
			PaperScale: sc.paperScale, Parties: sc.paperParties, Rounds: sc.paperRounds,
			Parallelism: nproc, Seed: seed,
		}}
	case "fleet_async", "dist_fleet":
		w.dist = name == "dist_fleet"
		w.jobs = []flips.SimulationConfig{{
			Dataset: "mit-bih-ecg", Strategy: "oort", Aggregation: "buffered",
			DeviceProfile: "lognormal", Availability: "churn",
			Parties: sc.fleetParties, Rounds: sc.fleetRounds, PartyFraction: sc.fleetFraction,
			Shards: sc.fleetShards, Parallelism: nproc, Seed: seed,
		}}
	case "masked_sync":
		w.jobs = []flips.SimulationConfig{{
			Dataset: "mit-bih-ecg", Strategy: "flips",
			DeviceProfile: "lognormal", Availability: "churn", Deadline: 60,
			Mask: true, Clip: 1,
			Parties: sc.maskedParties, Rounds: sc.maskedRounds,
			Parallelism: nproc, Seed: seed,
		}}
	case "server_mixed":
		w.mixed = true
		w.jobs = mixedJobs(seed, sc)
	default:
		return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames)
	}
	return w, nil
}

// mixedJobs generates server_mixed's job list: six laptop-scale job kinds at
// fixed shares of the window, in a seeded order, job i seeded base+i. The
// shares are exact rather than sampled, so the amount of work in a window
// does not swing with the seed (one femnist job costs five ecg ones).
// Parallelism stays 0 so the server's per-job default of 1 applies.
func mixedJobs(seed uint64, sc scale) []flips.SimulationConfig {
	kinds := []struct {
		share float64
		cfg   flips.SimulationConfig
	}{
		{0.40, flips.SimulationConfig{Dataset: "mit-bih-ecg", Strategy: "flips", StragglerRate: 0.1}},
		{0.20, flips.SimulationConfig{Dataset: "mit-bih-ecg", Strategy: "oort", DeviceProfile: "lognormal", Availability: "churn"}},
		{0.15, flips.SimulationConfig{Dataset: "mit-bih-ecg", Strategy: "random", Aggregation: "buffered", DeviceProfile: "lognormal"}},
		{0.10, flips.SimulationConfig{Dataset: "femnist", Strategy: "flips"}},
		{0.10, flips.SimulationConfig{Dataset: "mit-bih-ecg", Strategy: "flips", Fold: "median", FaultModel: "byzantine", FaultFraction: 0.2, DeviceProfile: "lognormal"}},
		{0.05, flips.SimulationConfig{Dataset: "mit-bih-ecg", Strategy: "tifl", Aggregation: "semisync", DeviceProfile: "lognormal", Availability: "churn", Deadline: 60}},
	}
	jobs := make([]flips.SimulationConfig, 0, sc.mixedJobs)
	var cum float64
	for _, k := range kinds {
		// Cumulative rounding: the counts sum to mixedJobs exactly.
		cum += k.share
		for len(jobs) < int(cum*float64(sc.mixedJobs)+0.5) {
			jobs = append(jobs, k.cfg)
		}
	}
	rng.New(seed).Split(0xB0).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	for i := range jobs {
		jobs[i].Parties, jobs[i].Rounds = sc.mixedParties, sc.mixedRounds
		jobs[i].Seed = seed + uint64(i)
	}
	return jobs
}
