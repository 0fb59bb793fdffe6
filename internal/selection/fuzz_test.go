package selection

import (
	"testing"

	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// FuzzSelectorFeedback drives every registered selector through arbitrary
// Select/Observe sequences — byte-derived losses, durations, straggler
// splits and round targets — and asserts the Selector contract: returned IDs
// are unique and in range, and no feedback sequence panics a selector. The
// selector list enumerates the registry, so a new registrant is fuzzed
// without touching this file.
func FuzzSelectorFeedback(f *testing.F) {
	f.Add(uint64(1), 8, 3, 5, []byte{0x01, 0x80, 0xFF})
	f.Add(uint64(7), 1, 1, 1, []byte{})
	f.Add(uint64(42), 64, 20, 10, []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F})
	f.Add(uint64(3), 16, 6, 40, []byte{0xAA, 0x55, 0xAA, 0x55})

	f.Fuzz(func(t *testing.T, seed uint64, n, target, rounds int, data []byte) {
		if n < 1 || n > 128 || rounds < 1 || rounds > 32 || target < 1 {
			t.Skip()
		}
		if target > n {
			target = n
		}
		const paramDim = 4
		sizes := make([]int, n)
		latencies := make([]float64, n)
		lr := rng.New(seed)
		for i := range sizes {
			sizes[i] = 1 + lr.Intn(50)
			latencies[i] = 0.1 + lr.Float64()*5
		}
		lds := make([]tensor.Vec, n)
		for i := range lds {
			v := tensor.NewVec(4)
			for j := range v {
				v[j] = 0.05
			}
			v[i%4] += 0.8
			lds[i] = v.Normalize()
		}
		var selectors []fl.Selector
		for off, name := range Names() {
			ctx := BuildContext{
				NumParties: n,
				ParamDim:   paramDim,
				RNG:        rng.New(seed + uint64(off)),
				DataSizes:  func() []int { return sizes },
				Latencies:  func() []float64 { return latencies },
				LabelDists: func() []tensor.Vec { return lds },
			}
			sel, _, err := Build(name, ctx)
			if err != nil {
				t.Fatalf("Build(%q, n=%d): %v", name, n, err)
			}
			selectors = append(selectors, sel)
		}

		// byte(i) cycles through data to perturb the synthesized feedback.
		byteAt := func(i int) byte {
			if len(data) == 0 {
				return 0x5A
			}
			return data[i%len(data)]
		}

		for _, sel := range selectors {
			if sel.Name() == "" {
				t.Fatal("selector with empty name")
			}
			for round := 0; round < rounds; round++ {
				ids := sel.Select(round, target)
				if len(ids) == 0 {
					t.Fatalf("%s: empty selection at round %d (target %d of %d)", sel.Name(), round, target, n)
				}
				seen := map[int]bool{}
				for _, id := range ids {
					if id < 0 || id >= n {
						t.Fatalf("%s: out-of-range id %d (n=%d)", sel.Name(), id, n)
					}
					if seen[id] {
						t.Fatalf("%s: duplicate id %d at round %d", sel.Name(), id, round)
					}
					seen[id] = true
				}

				// Split invited into completed/stragglers by data bytes and
				// synthesize per-party feedback values from the same bytes.
				fb := fl.RoundFeedback{Round: round, Selected: ids}
				for i, id := range ids {
					b := byteAt(round*7 + i)
					if b%4 == 0 {
						fb.Stragglers = append(fb.Stragglers, id)
						continue
					}
					loss := float64(b) / 16
					up := tensor.NewVec(paramDim)
					for j := range up {
						up[j] = float64(int(b)-128) / 64
					}
					fb.Completed = append(fb.Completed, fl.PartyReport{
						ID: id, MeanLoss: loss, SqLoss: loss * loss,
						Duration: latencies[id] * float64(1+b%8), Update: up,
					})
				}
				sel.Observe(fb)
			}
		}
	})
}
