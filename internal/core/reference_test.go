package core

import (
	"fmt"
	"slices"
	"testing"

	"flips/internal/fl"
	"flips/internal/rng"
)

// refSelect is Select as it was before a round parked what it popped: every
// turn of a cluster pops its heap until a member can be taken and pushes all
// of them back, so a cluster the round has drained is popped through on each
// of its turns. It is the reference the parked Select must reproduce pick for
// pick (cluster-aware over-provisioning only; the random ablation draws the
// same candidates either way).
func refSelect(s *Selector, target int) []int {
	target = min(target, s.NumParties())
	selected := make([]int, 0, target)
	inRound := make(map[int]bool, target)
	refPickEquitable(s, target, inRound, &selected)
	if s.stragglers > 0 {
		extra := int(s.stragRate * float64(target))
		var order []int
		if extra > 0 {
			order = s.stragglerOrder()
		}
		for i := 0; i < extra && len(selected) < s.NumParties(); i++ {
			p, ok := refOverprovisionPick(s, inRound, order)
			if !ok {
				break
			}
			inRound[p] = true
			selected = append(selected, p)
		}
	}
	return selected
}

func refOverprovisionPick(s *Selector, inRound map[int]bool, order []int) (int, bool) {
	for _, c := range order {
		if p, ok := refPickFromCluster(s, c, inRound, true); ok {
			return p, true
		}
	}
	return 0, false
}

func refPickEquitable(s *Selector, n int, inRound map[int]bool, out *[]int) {
	for len(*out) < n {
		tried := 0
		for ; tried < s.NumClusters(); tried++ {
			c := s.clusterHp.pop()
			p, ok := refPickFromCluster(s, c, inRound, false)
			s.visits[c]++
			s.clusterHp.push(c)
			if ok {
				inRound[p] = true
				*out = append(*out, p)
				break
			}
		}
		if tried == s.NumClusters() {
			return
		}
	}
}

func refPickFromCluster(s *Selector, c int, inRound map[int]bool, skipStragglers bool) (int, bool) {
	h := &s.partyHp[c]
	popped := make([]int, 0, 4)
	chosen := -1
	for len(h.ids) > 0 {
		p := h.pop()
		popped = append(popped, p)
		if inRound[p] {
			continue
		}
		if skipStragglers && s.straggler[p] {
			continue
		}
		chosen = p
		break
	}
	if chosen >= 0 {
		s.picks[chosen]++
	}
	for _, p := range popped {
		h.push(p)
	}
	return max(chosen, 0), chosen >= 0
}

// TestSelectMatchesReference drives the selector and the reference through
// the same rounds — cohorts that drain small clusters, straggler rates that
// keep over-provisioning live and exhaust clusters, stragglers that later
// complete — and requires the same picks every round and the same pick
// counts at the end.
func TestSelectMatchesReference(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		sizes         []int
		cohort        int
		stragglerRate float64
	}{
		{[]int{850, 53, 55, 32, 11}, 200, 0.1}, // the 100k-party ECG fleet's shape, at 1k
		{[]int{850, 53, 55, 32, 11}, 600, 0.5},
		{[]int{40, 40, 40}, 30, 0.3},
		{[]int{300, 20, 7}, 100, 0.6},
		{[]int{5, 3, 1}, 9, 0.5}, // the whole fleet every round
		{[]int{6, 1}, 4, 0.9},
	} {
		t.Run(fmt.Sprintf("%v/%d/%v", tc.sizes, tc.cohort, tc.stragglerRate), func(t *testing.T) {
			t.Parallel()
			r := rng.New(uint64(tc.cohort))
			total := 0
			for _, n := range tc.sizes {
				total += n
			}
			ids := make([]int, total)
			for i := range ids {
				ids[i] = i
			}
			r.Shuffle(total, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			var clusters [][]int
			for _, n := range tc.sizes {
				c := slices.Clone(ids[:n])
				slices.Sort(c)
				clusters = append(clusters, c)
				ids = ids[n:]
			}
			got, err := NewSelector(clusters)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewSelector(clusters)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 40; round++ {
				picks, wantPicks := got.Select(round, tc.cohort), refSelect(want, tc.cohort)
				if !slices.Equal(picks, wantPicks) {
					t.Fatalf("round %d: selected %v, reference %v", round, picks, wantPicks)
				}
				fb := fl.RoundFeedback{Round: round, Selected: picks}
				for _, id := range picks {
					if r.Float64() < tc.stragglerRate {
						fb.Stragglers = append(fb.Stragglers, id)
					} else {
						fb.Completed = append(fb.Completed, fl.PartyReport{ID: id})
					}
				}
				got.Observe(fb)
				want.Observe(fb)
			}
			if !slices.Equal(got.picks, want.picks) {
				t.Fatalf("pick counts %v, reference %v", got.picks, want.picks)
			}
			for c := range want.partyHp {
				if len(got.partyHp[c].ids) != len(want.partyHp[c].ids) {
					t.Fatalf("cluster %d heap holds %d members, reference %d", c, len(got.partyHp[c].ids), len(want.partyHp[c].ids))
				}
			}
		})
	}
}
