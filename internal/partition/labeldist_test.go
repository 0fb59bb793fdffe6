package partition_test

import (
	"math"
	"testing"

	"flips/internal/dataset"
	"flips/internal/fl"
	"flips/internal/partition"
	"flips/internal/rng"
)

// The label-distribution vectors FLIPS clusters on are counted by
// fl.ProfileParties over the samples a partition deals; these tests pin that
// count against the partition itself.

func dealtParties(t *testing.T, n, parties int, alpha float64, seed uint64) (*dataset.Dataset, *partition.Partition, []*fl.Party) {
	t.Helper()
	ds, _, err := dataset.Generate(dataset.ECG().WithSizes(n, 50), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.Dirichlet(ds, parties, alpha, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return ds, p, fl.BuildParties(ds, p, 0, nil)
}

func TestLabelDistributionMatchesCounts(t *testing.T) {
	t.Parallel()
	ds, p, parties := dealtParties(t, 1000, 25, 0.3, 9)
	if len(parties) != 25 {
		t.Fatalf("got %d parties", len(parties))
	}
	for i, party := range parties {
		ld := party.LabelDist
		if int(ld.Sum()) != len(p.Parties[i]) {
			t.Fatalf("party %d: LD sum %v != size %d", i, ld.Sum(), len(p.Parties[i]))
		}
		for _, idx := range p.Parties[i] {
			if y := ds.Samples[idx].Y; ld[y] == 0 {
				t.Fatalf("party %d: label %d present but LD count is 0", i, y)
			}
		}
	}
}

func TestNormalizedLabelDistributionsSumToOne(t *testing.T) {
	t.Parallel()
	_, _, parties := dealtParties(t, 800, 20, 0.6, 10)
	for i, ld := range fl.NormalizedLabelDists(parties) {
		if math.Abs(ld.Sum()-1) > 1e-9 {
			t.Fatalf("party %d: normalized LD sums to %v", i, ld.Sum())
		}
	}
}
