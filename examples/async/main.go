// Async aggregation: run the same FL job under the engine's three execution
// models — synchronous rounds (the paper's setting), FedBuff-style buffered
// aggregation, and semi-synchronous deadline windows — over a heavy-tailed
// device fleet, and compare **time-to-target-accuracy**. Synchronous rounds
// wait for the slowest invited party every round; the async modes decouple
// the server from the slow tail and fold late updates with
// staleness-discounted weights instead of dropping them, so the same
// selection strategy can reach the target in a fraction of the simulated
// wall-clock.
//
//	go run ./examples/async            # full mode × staleness × strategy sweep
//	go run ./examples/async -quick     # FLIPS under the three modes only
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"flips"
)

func main() {
	quick := flag.Bool("quick", false, "compare only FLIPS across the three aggregation modes instead of the full sweep")
	seed := flag.Uint64("seed", 1, "master random seed")
	flag.Parse()

	if !*quick {
		fmt.Println("Aggregation-mode sweep: lognormal fleet, ECG workload, FedYogi")
		fmt.Println("(sync vs buffered vs semisync x staleness, FLIPS vs Oort vs Random, time-to-accuracy)")
		fmt.Println()
		if err := flips.RunExperiment(os.Stdout, "async", flips.ExperimentOptions{Seed: *seed}); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Println("FLIPS under the three aggregation modes (lognormal fleet, 80% churn)")
	fmt.Println()
	fmt.Printf("%-10s  %-12s  %-14s  %-12s  %-10s\n",
		"mode", "time-to-65%", "steps-to-65%", "job-time", "peak-acc")
	for _, mode := range []struct {
		name     string
		deadline float64
	}{
		{"sync", 0},
		{"buffered", 0},
		{"semisync", 1},
	} {
		res, err := flips.RunSimulation(flips.SimulationConfig{
			Dataset:       "mit-bih-ecg",
			Strategy:      "flips",
			DeviceProfile: "lognormal",
			Availability:  "churn",
			Aggregation:   mode.name,
			Deadline:      mode.deadline,
			Seed:          *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		tta := fmt.Sprintf("%.1fs", res.TimeToTarget)
		rtt := fmt.Sprintf("%d", res.RoundsToTarget)
		if res.RoundsToTarget < 0 {
			tta, rtt = "never", fmt.Sprintf(">%d", res.History[len(res.History)-1].Round)
		}
		fmt.Printf("%-10s  %-12s  %-14s  %-12s  %-10.2f\n",
			mode.name, tta, rtt, fmt.Sprintf("%.1fs", res.SimTime), 100*res.PeakAccuracy)
	}
}
