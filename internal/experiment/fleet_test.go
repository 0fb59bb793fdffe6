package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flips/internal/fl"
)

func testSweep() FleetSweep {
	return FleetSweep{
		Parties:         []int{200, 3000},
		Shards:          []int{1, 16},
		Rounds:          3,
		PartiesPerRound: 8,
		Strategy:        StrategyRandom,
		Seed:            7,
		Parallelism:     1,
	}
}

func TestRunScaleSweep(t *testing.T) {
	t.Parallel()
	var lines []string
	cells, err := RunFleet(testSweep(), nil, func(msg string) { lines = append(lines, msg) })
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	if len(lines) != 4 {
		t.Fatalf("progress reported %d cells", len(lines))
	}
	for i, c := range cells {
		if c.Workers != 0 {
			t.Fatalf("cell %dp/%ds ran through %d workers; none were asked for", c.Parties, c.Shards, c.Workers)
		}
		if c.ShardsTouched < 1 || c.ShardsTouched > c.Shards {
			t.Fatalf("cell %dp/%ds: shards touched %d", c.Parties, c.Shards, c.ShardsTouched)
		}
		for _, want := range []string{"rounds/sec", "arrivals/sec", "MB allocated", "MB peak heap"} {
			if !strings.Contains(lines[i], want) {
				t.Fatalf("progress line %q missing %q", lines[i], want)
			}
		}
	}
	// The rendered table is a pure function of the sweep: what the host
	// measured stays on the progress line, and a second run prints the same
	// bytes.
	var first, second bytes.Buffer
	renderScale(&first, testSweep(), cells)
	out := first.String()
	if !strings.Contains(out, "Fleet-scale sweep") || !strings.Contains(out, "3000\t16\t") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if strings.Contains(out, "/sec") || strings.Contains(out, "MB") {
		t.Fatalf("render carries host-dependent measurements:\n%s", out)
	}
	again, err := RunFleet(testSweep(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if renderScale(&second, testSweep(), again); second.String() != out {
		t.Fatalf("two runs of one sweep render differently:\n%s\nvs\n%s", out, second.String())
	}
}

func TestRunScaleOortStrategy(t *testing.T) {
	t.Parallel()
	sweep := testSweep()
	sweep.Parties = []int{3000}
	sweep.Shards = []int{8}
	sweep.Strategy = StrategyOort
	cells, err := RunFleet(sweep, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].ShardsTouched < 1 {
		t.Fatalf("oort sweep cells: %+v", cells)
	}
}

func TestRunScaleRejectsUnknownStrategy(t *testing.T) {
	t.Parallel()
	sweep := testSweep()
	sweep.Strategy = "psychic"
	_, err := RunFleet(sweep, nil, nil)
	if err == nil {
		t.Fatal("unknown scale strategy accepted")
	}
	// The registry rejection names what would have worked.
	if !strings.Contains(err.Error(), StrategyTiFL) {
		t.Fatalf("error %q should list the registered selectors", err)
	}
}

// TestRunScaleAcceptsAnyRegisteredStrategy pins the registry routing: every
// selector — including the signal-hungry families that need latencies and
// label distributions — builds and runs a fleet-scale cell.
func TestRunScaleAcceptsAnyRegisteredStrategy(t *testing.T) {
	t.Parallel()
	for _, strategy := range []string{StrategyTiFL, StrategyLossProp, StrategyDPP} {
		sweep := testSweep()
		sweep.Parties = []int{300}
		sweep.Shards = []int{2}
		sweep.Strategy = strategy
		cells, err := RunFleet(sweep, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if len(cells) != 1 || cells[0].ShardsTouched < 1 {
			t.Fatalf("%s sweep cells: %+v", strategy, cells)
		}
	}
}

// TestScaleShardsAreBitInvariant ties the sweep harness into the sharded
// determinism contract: the same cell at different shard counts must report
// the same final accuracy trajectory (throughput differs; science must not).
func TestScaleShardsAreBitInvariant(t *testing.T) {
	t.Parallel()
	a, err := fleetCellConfig(testSweep(), 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fleetCellConfig(testSweep(), 500, 32)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := fl.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := fl.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.History) != len(rb.History) {
		t.Fatal("history lengths diverge across shard counts")
	}
	for i := range ra.History {
		if ra.History[i].Accuracy != rb.History[i].Accuracy || ra.History[i].MeanLoss != rb.History[i].MeanLoss {
			t.Fatalf("round %d diverges across shard counts", i)
		}
	}
	for i := range ra.FinalParams {
		if ra.FinalParams[i] != rb.FinalParams[i] {
			t.Fatalf("final param %d diverges across shard counts", i)
		}
	}
}

// TestRunDistSweep runs the distributed face over in-process loopback
// workers: every distributed cell must be byte-identical to its in-process
// baseline (RunFleet enforces this itself and fails otherwise), the host-side
// cost — wire traffic included — must reach the progress line and only the
// progress line, and the render must carry the cells.
func TestRunDistSweep(t *testing.T) {
	t.Parallel()
	sweep := testSweep()
	sweep.Parties, sweep.Shards, sweep.Workers = []int{400}, []int{4}, []int{1, 3}
	var lines []string
	cells, err := RunFleet(sweep, nil, func(msg string) { lines = append(lines, msg) })
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want baseline + 2 worker counts", len(cells))
	}
	if len(lines) != 3 {
		t.Fatalf("progress reported %d cells", len(lines))
	}
	for i, c := range cells {
		if want := []int{0, 1, 3}[i]; c.Workers != want || c.ShardsTouched != cells[0].ShardsTouched {
			t.Fatalf("cell %d = %+v, want %d workers and the baseline's shard locality", i, c, want)
		}
		if idle := strings.Contains(lines[i], " 0 KB on wire"); idle != (i == 0) {
			t.Fatalf("cell %dp/%dw: progress line %q — only the in-process baseline is silent on the wire", c.Parties, c.Workers, lines[i])
		}
	}
	var buf bytes.Buffer
	renderDist(&buf, sweep, cells)
	out := buf.String()
	if !strings.Contains(out, "Distributed-aggregation sweep") || !strings.Contains(out, "400\t3\ttrue") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if strings.Contains(out, "/sec") || strings.Contains(out, "KB") {
		t.Fatalf("render carries host-dependent measurements:\n%s", out)
	}
}

// TestDistFleetBuilderMatchesRange pins the shard-rebuild contract: a worker
// building [lo, hi) gets exactly the parties the full fleet has there.
func TestDistFleetBuilderMatchesRange(t *testing.T) {
	t.Parallel()
	full, _, _, err := buildFleetRange(0, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(fleetSpec{Parties: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	setup, err := DistFleetBuilder()(spec, 20, 35)
	if err != nil {
		t.Fatal(err)
	}
	if len(setup.Parties) != 15 {
		t.Fatalf("built %d parties, want 15", len(setup.Parties))
	}
	for k, p := range setup.Parties {
		want := full[20+k]
		if p.ID != want.ID || p.Latency != want.Latency || len(p.Data) != len(want.Data) {
			t.Fatalf("party %d mismatch: %+v vs %+v", p.ID, p, want)
		}
		for j := range p.Data {
			if p.Data[j].Y != want.Data[j].Y {
				t.Fatalf("party %d sample %d label mismatch", p.ID, j)
			}
			for x := range p.Data[j].X {
				if p.Data[j].X[x] != want.Data[j].X[x] {
					t.Fatalf("party %d sample %d feature mismatch", p.ID, j)
				}
			}
		}
	}
	if _, err := DistFleetBuilder()(spec, 40, 60); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := DistFleetBuilder()([]byte("{"), 0, 1); err == nil {
		t.Fatal("malformed spec accepted")
	}
}
