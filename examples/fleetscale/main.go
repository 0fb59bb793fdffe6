// Fleet scale: run the FLIPS simulator over cross-device populations far
// beyond the paper's 200 parties — up to 100,000 — and watch what sharded
// aggregation buys. The engine partitions the fleet into deterministic
// shards, keeps every dense per-party structure shard-local and lazily
// allocated, and the selectors' fleet-scale paths (top-k utility heaps,
// sparse cohort sampling) cost O(cohort) per step, not O(population). The
// science is untouched: results are bit-identical at every shard count, so
// the sweep below prints each cell's shard locality — the Oort regime of
// guided selection over ~1.3M clients (Lai et al., OSDI'21) on a laptop.
// Throughput and memory are properties of the host, not the run: `flipsbench
// -exp scale` reports them per cell on stderr.
//
//	go run ./examples/fleetscale             # 1k / 10k / 100k parties at 1 and 64 shards
//	go run ./examples/fleetscale -quick      # 1k / 10k only
//	go run ./examples/fleetscale -oort       # guided selection instead of random
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"flips"
)

func main() {
	quick := flag.Bool("quick", false, "sweep only 1k and 10k parties")
	oort := flag.Bool("oort", false, "use Oort guided selection (top-k heap path) instead of random")
	seed := flag.Uint64("seed", 1, "master random seed")
	flag.Parse()

	opts := flips.ExperimentOptions{
		Populations: []int{1_000, 10_000, 100_000},
		Selectors:   []string{"random"},
		Seed:        *seed,
	}
	if *quick {
		opts.Populations = opts.Populations[:2]
	}
	if *oort {
		opts.Selectors = []string{"oort"}
	}

	fmt.Println("Fleet-scale demo: buffered (FedBuff-style) aggregation over a synthetic device fleet")
	fmt.Println("Each cell is one full FL job at 1 and 64 shards.")
	fmt.Println()
	if err := flips.RunExperiment(os.Stdout, "scale", opts); err != nil {
		log.Fatal(err)
	}
	fmt.Println("The shard count never moves a result bit — rerun any cell with a different")
	fmt.Println("-shards via `flipsbench -exp scale` and diff the science: it is byte-identical.")
}
