package selection

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"flips/internal/fl"
	"flips/internal/tensor"
)

// TestSelectionsGolden pins what every registered selector returns, round by
// round, below and above the scale threshold: testdata/selections.golden was
// rendered by the selectors before their shared steps (the explore/exploit
// split, the candidate band, the straggler order) were factored out, and a
// refactor of the selection layer must leave it byte-unchanged. The 3000-party
// half runs every fleet-scale path — Oort's heap band and untried pool, the
// bounded clustering pools and the capped label-clustering sweep — and TiFL
// and the Scored family at fleet size.
func TestSelectionsGolden(t *testing.T) {
	t.Parallel()
	want, err := os.ReadFile(filepath.Join("testdata", "selections.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := renderSelections(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			// Show each line from its selector label to just past the first
			// differing byte.
			at := 0
			for at < min(len(gl[i]), len(wl[i])) && gl[i][at] == wl[i][at] {
				at++
			}
			label := bytes.IndexByte(gl[i], ':') + 1
			t.Fatalf("line %d differs from the golden at byte %d:\n got: %s …%s\nwant: %s …%s", i+1, at,
				gl[i][:label], gl[i][max(label, at-40):min(len(gl[i]), at+40)],
				wl[i][:label], wl[i][max(label, at-40):min(len(wl[i]), at+40)])
		}
	}
	t.Fatalf("rendered %d lines, the golden has %d", len(gl), len(wl))
}

// renderSelections drives every registry selector for 25 rounds at 60 and at
// 3000 parties under goldenFeedback and writes one line per Select.
func renderSelections(t *testing.T) []byte {
	var b bytes.Buffer
	for _, size := range []struct{ n, target int }{{60, 12}, {3000, 64}} {
		for _, name := range Names() {
			sel, _, err := Build(name, testBuildContext(size.n, 29))
			if err != nil {
				t.Fatalf("Build(%q, n=%d): %v", name, size.n, err)
			}
			needUpdates := false
			if uc, ok := sel.(fl.UpdateConsumer); ok {
				needUpdates = uc.NeedsUpdates()
			}
			for round := 0; round < 25; round++ {
				ids := sel.Select(round, size.target)
				fmt.Fprintf(&b, "%s n=%d r=%d:", name, size.n, round)
				for _, id := range ids {
					b.WriteByte(' ')
					b.WriteString(strconv.Itoa(id))
				}
				b.WriteByte('\n')
				sel.Observe(goldenFeedback(round, ids, needUpdates))
			}
		}
	}
	return b.Bytes()
}

// goldenFeedback reports a round deterministically: every tenth invitee
// straggles, and the rest complete with a loss and a duration that move with
// both the party and the round, plus a 6-dimensional update when the selector
// consumes them.
func goldenFeedback(round int, ids []int, needUpdates bool) fl.RoundFeedback {
	fb := fl.RoundFeedback{Round: round, Selected: append([]int(nil), ids...)}
	for i, id := range ids {
		if i%10 == 9 {
			fb.Stragglers = append(fb.Stragglers, id)
			continue
		}
		loss := 0.1 + float64((id*7+round*3)%17)/8
		r := fl.PartyReport{ID: id, MeanLoss: loss, SqLoss: loss*loss + 0.01, Duration: 0.5 + float64((id*13+round)%9)/4}
		if needUpdates {
			r.Update = tensor.NewVec(6)
			for j := range r.Update {
				r.Update[j] = math.Sin(float64(id*6+j+round)) / (1 + float64(id%4))
			}
		}
		fb.Completed = append(fb.Completed, r)
	}
	return fb
}
