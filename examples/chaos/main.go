// Chaos engineering for federated learning: what happens to convergence
// when the fleet misbehaves? This example poisons 20% of the parties with a
// byzantine fault — their model updates are replaced with scaled Gaussian
// noise — and compares the aggregation folds' ability to shrug it off.
// Plain FedAvg averaging folds the noise straight into the global model;
// the robust folds (trimmed mean, coordinate-wise median, Krum) discard
// outlier updates before averaging, at the price of ignoring some honest
// ones.
//
//	go run ./examples/chaos
//
// The full fault × fold × strategy matrix is `flipsbench -exp chaos`.
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

	fmt.Println("Aggregation folds under a 20% byzantine fleet (ECG workload, FedAvg)")
	fmt.Println()
	fmt.Printf("%-14s  %-12s  %-14s  %-10s\n",
		"fold", "time-to-65%", "rounds-to-65%", "peak-acc")
	for _, fold := range []string{"mean", "trimmed-mean", "median", "krum"} {
		res, err := flips.RunSimulation(flips.SimulationConfig{
			Dataset:       "mit-bih-ecg",
			Algorithm:     "fedavg",
			Strategy:      "random",
			Alpha:         0.6,
			PartyFraction: 0.5,
			Fold:          fold,
			FaultModel:    "byzantine",
			FaultFraction: 0.2,
			Rounds:        80,
			Parties:       20,
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
		fmt.Printf("%-14s  %-12s  %-14s  %-10.2f\n",
			fold, tta, rtt, 100*res.PeakAccuracy)
	}
	fmt.Println()
	fmt.Println("The robust folds keep converging because each aggregation step drops")
	fmt.Println("the outlier updates; the plain mean folds the noise into the model.")
}
