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
//	go run ./examples/async
//
// The full mode × staleness × strategy sweep is `flipsbench -exp async`.
package main

import (
	"flag"
	"fmt"
	"log"

	"flips"
)

func main() {
	seed := flag.Uint64("seed", 1, "master random seed")
	flag.Parse()

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
