// Secure aggregation for federated learning: what does privacy cost? This
// example climbs the privacy ladder on the same churn-prone device fleet —
// plaintext aggregation, L2 update clipping, Bonawitz-style pairwise masking
// with Shamir dropout recovery, and masking plus differential-privacy noise —
// and compares convergence. Under masking the server only ever sees the
// cohort sum of fixed-point-encoded updates, never an individual update;
// parties that miss the deadline or churn offline mid-round have their masks
// reconstructed from the survivors' secret shares, and a round whose
// survivors fall below the share threshold aborts without moving the model.
//
//	go run ./examples/privacy
//
// The full arm × strategy sweep table is `flipsbench -exp privacy`.
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

	fmt.Println("The privacy ladder over a churn-prone device fleet (ECG workload, FedYogi)")
	fmt.Println()
	fmt.Printf("%-12s  %-12s  %-14s  %-10s  %-8s  %-9s\n",
		"arm", "time-to-65%", "rounds-to-65%", "peak-acc", "aborts", "dropouts")
	arms := []struct {
		name string
		cfg  func(*flips.SimulationConfig)
	}{
		{"plaintext", func(c *flips.SimulationConfig) {}},
		{"clip", func(c *flips.SimulationConfig) { c.Clip = 1 }},
		{"masked", func(c *flips.SimulationConfig) {
			c.Mask = true
			c.ShareThreshold = 2
		}},
		{"masked+dp", func(c *flips.SimulationConfig) {
			c.Mask = true
			c.ShareThreshold = 2
			c.Epsilon = 5
		}},
	}
	for _, arm := range arms {
		cfg := flips.SimulationConfig{
			Dataset:       "mit-bih-ecg",
			Strategy:      "flips",
			Alpha:         0.6,
			PartyFraction: 0.5,
			DeviceProfile: "lognormal",
			Availability:  "churn",
			Deadline:      3,
			Rounds:        60,
			Parties:       24,
			Seed:          *seed,
		}
		arm.cfg(&cfg)
		res, err := flips.RunSimulation(cfg)
		if err != nil {
			log.Fatal(err)
		}
		tta := fmt.Sprintf("%.1fs", res.TimeToTarget)
		rtt := fmt.Sprintf("%d", res.RoundsToTarget)
		if res.RoundsToTarget < 0 {
			tta, rtt = "never", fmt.Sprintf(">%d", res.History[len(res.History)-1].Round)
		}
		aborts, dropouts := 0, 0
		for _, h := range res.History {
			if h.MaskAborted {
				aborts++
			}
			dropouts += h.Invited - h.Completed
		}
		fmt.Printf("%-12s  %-12s  %-14s  %-10.2f  %-8d  %-9d\n",
			arm.name, tta, rtt, 100*res.PeakAccuracy, aborts, dropouts)
	}
	fmt.Println()
	fmt.Println("Masking hides every individual update behind pairwise masks that cancel")
	fmt.Println("in the cohort sum; dropout masks are rebuilt from Shamir shares, so the")
	fmt.Println("fleet's churn costs reconstruction work, not rounds. The DP arm buys a")
	fmt.Println("formal guarantee with Laplace noise on the folded mean.")
}
