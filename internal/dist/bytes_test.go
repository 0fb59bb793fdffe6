package dist

import (
	"testing"
	"time"

	"flips/internal/fl"
)

// transferLog wraps a selector and counts, from each cycle's feedback, the
// model transfers the engine charges: a download for every invitee the
// legacy straggler coin may then drop, and for every party an event-driven
// policy dispatched (its Stragglers are the invitees offline at every
// draw, never dispatched); an upload for every completed party.
type transferLog struct {
	fl.Selector
	legacy             bool
	downloads, uploads []int
}

func (l *transferLog) Observe(fb fl.RoundFeedback) {
	l.Selector.Observe(fb)
	down := len(fb.Selected)
	if !l.legacy {
		down -= len(fb.Stragglers)
	}
	l.downloads = append(l.downloads, down)
	l.uploads = append(l.uploads, len(fb.Completed))
}

// The coordinator's received bytes beyond the uploaded parameters
// (DESIGN.md, "Communication bytes"): every partial-fold frame carries the
// wire header and the fold header, every trained party its result header,
// and every worker acknowledges its job's assignment once.
const (
	foldFrameOverhead = 6 + foldHeadLen // wire header (u32 length, version, type)
	assignAckBytes    = 6 + 8           // wire header, job ID
)

// TestCommBytesCountTheModelTransfers pins RoundStats.CommBytes to 8 bytes
// per parameter per download and per completed upload, every round of the
// sync, buffered and semi-sync golden jobs, and their sum to
// TotalCommBytes. It then runs the sync job through five loopback workers,
// one per engine shard, and pins the bytes the coordinator received to the
// uploaded half of TotalCommBytes plus the framing: one partial-fold frame
// per (round, worker reached) — ShardsTouched, since the slots are the
// shards — and one result header per trained party.
func TestCommBytesCountTheModelTransfers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mk     func() (fl.Config, error)
		legacy bool
	}{
		{"sync", fl.GoldenLegacyConfig, true},
		{"buffered", fl.GoldenAsyncConfig, false},
		{"semisync", fl.GoldenSemiSyncConfig, false},
	} {
		cfg, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		log := &transferLog{Selector: cfg.Selector, legacy: tc.legacy}
		cfg.Selector = log
		res, err := fl.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		paramBytes := 8 * int64(len(res.FinalParams))
		if len(res.History) != cfg.Rounds || len(log.uploads) != cfg.Rounds {
			t.Fatalf("%s: %d history entries and %d feedbacks for %d rounds", tc.name, len(res.History), len(log.uploads), cfg.Rounds)
		}
		var total int64
		for i, h := range res.History {
			if want := paramBytes * int64(log.downloads[i]+log.uploads[i]); h.CommBytes != want {
				t.Errorf("%s round %d: CommBytes %d, want %d (%d downloads, %d uploads of %d bytes)",
					tc.name, i, h.CommBytes, want, log.downloads[i], log.uploads[i], paramBytes)
			}
			if h.Completed != log.uploads[i] {
				t.Errorf("%s round %d: %d completed, feedback reports %d", tc.name, i, h.Completed, log.uploads[i])
			}
			total += h.CommBytes
		}
		if total != res.TotalCommBytes {
			t.Errorf("%s: rounds sum to %d bytes, TotalCommBytes is %d", tc.name, total, res.TotalCommBytes)
		}
	}

	const workers = 5 // 12 parties: blocks of 3, 2, 3, 2 and 2
	coord, addr := startCoordinator(t)
	for range workers {
		startWorker(t, addr, WorkerOptions{Builder: goldenBuilder})
	}
	if err := coord.AwaitWorkers(workers, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(coord, mustGoldenSpec(t), 12, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer job.Close()
	cfg, err := fl.GoldenLegacyConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport, cfg.Shards = job, workers
	res, err := fl.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paramBytes := 8 * int64(len(res.FinalParams))
	var invited, completed, frames int64
	for _, h := range res.History {
		invited += int64(h.Invited)
		completed += int64(h.Completed)
		frames += int64(h.ShardsTouched)
	}
	uploaded := res.TotalCommBytes - paramBytes*invited
	if uploaded != paramBytes*completed {
		t.Fatalf("uploaded half %d bytes, want %d completed uploads of %d", uploaded, completed, paramBytes)
	}
	var in int64
	for _, st := range job.Stats() {
		in += st.JobBytesIn
	}
	if want := uploaded + foldFrameOverhead*frames + foldPartyHeadLen*completed + assignAckBytes*workers; in != want {
		t.Fatalf("coordinator received %d bytes, want %d: %d uploaded + %d frames × %d + %d parties × %d + %d workers × %d",
			in, want, uploaded, frames, foldFrameOverhead, completed, foldPartyHeadLen, workers, assignAckBytes)
	}
}
