// Which participant-selection strategy should a deployment run? This
// example enters every selector in the selection registry — the paper's
// five, power-of-choice, cluster-proportional, the scored family, the
// deadline-aware pair and DPP diverse selection — into a tournament across
// four fleet regimes (clean, heavily non-IID, 80% churn, and a byzantine
// minority behind a median fold) and prints the ranking: the across-arm
// mean of normalized per-arm ranks, so a selector wins by being
// consistently near the top, not by one lucky cell.
//
//	go run ./examples/tournament                          # full registry, reduced scale
//	go run ./examples/tournament -selectors random,oort   # head-to-head subset
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"flips"
)

func main() {
	selectors := flag.String("selectors", "", "comma-separated selector names (default: every registered selector)")
	seed := flag.Uint64("seed", 1, "master random seed")
	flag.Parse()

	var names []string
	for _, f := range strings.Split(*selectors, ",") {
		if name := strings.TrimSpace(f); name != "" {
			names = append(names, name)
		}
	}

	fmt.Println("Selector tournament: ECG workload, FedYogi, four fleet regimes")
	fmt.Printf("registered selectors: %s\n", strings.Join(flips.Strategies(), ", "))
	fmt.Println()
	// Reduced scale so the full 13-selector x 4-arm grid finishes in about a
	// minute; drop the overrides for the laptop-scale ranking.
	err := flips.RunExperiment(os.Stdout, "tournament", flips.ExperimentOptions{
		Selectors: names,
		Rounds:    30,
		Parties:   30,
		Seed:      *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
}
