// Heterogeneity: run FLIPS, Oort and Random over a heavy-tailed simulated
// fleet under 80% churn and a 2 s round deadline and compare them on
// **time-to-target-accuracy** — the metric the device model makes
// first-class. The paper's flat straggler drop can't express any of this:
// here stragglers emerge from simulated compute/bandwidth wall-clock and
// from churn or diurnal availability, so a strategy that wins on rounds can
// still lose on simulated time by waiting out slow parties every round.
//
//	go run ./examples/heterogeneity
//
// The full deadline × availability sweep is `flipsbench -exp het`.
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

	fmt.Println("FLIPS vs Oort vs Random under 80% churn with a 2s round deadline")
	fmt.Println()
	fmt.Printf("%-8s  %-12s  %-14s  %-12s  %-10s\n",
		"strategy", "time-to-65%", "rounds-to-65%", "job-time", "peak-acc")
	for _, strategy := range []string{"flips", "oort", "random"} {
		res, err := flips.RunSimulation(flips.SimulationConfig{
			Dataset:       "mit-bih-ecg",
			Strategy:      strategy,
			DeviceProfile: "lognormal",
			Availability:  "churn",
			Deadline:      2,
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
		fmt.Printf("%-8s  %-12s  %-14s  %-12s  %-10.2f\n",
			strategy, tta, rtt, fmt.Sprintf("%.1fs", res.SimTime), 100*res.PeakAccuracy)
	}
}
