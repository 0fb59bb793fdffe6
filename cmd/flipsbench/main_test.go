package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"flips/internal/experiment"
)

// expandNames is the -exp expansion as the names of the entries it selects.
func expandNames(spec string) ([]string, error) {
	entries, err := experiment.Expand(spec)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names, err
}

func TestExpandExperimentsAll(t *testing.T) {
	ids, err := expandNames("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 24+10+1+1+1+1+1+1+1+1 {
		t.Fatalf("expanded %d ids", len(ids))
	}
	if ids[0] != "table1" || ids[23] != "table24" {
		t.Fatalf("table ordering: %v", ids[:24])
	}
	if ids[24] != "fig2" {
		t.Fatalf("figures not after tables: %v", ids[24])
	}
	for i, want := range []string{"het", "async", "chaos", "privacy", "tournament", "scale", "dist", "tee"} {
		if got := ids[len(ids)-8+i]; got != want {
			t.Fatalf("tail ordering: got %q at %d, want %q (ids: %v)", got, i, want, ids[len(ids)-8:])
		}
	}
}

func TestExpandExperimentsDedupAndOrder(t *testing.T) {
	ids, err := expandNames("fig5, table2,table2 ,fig2")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"table2", "fig2", "fig5"}
	if len(ids) != len(want) {
		t.Fatalf("ids %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids %v, want %v", ids, want)
		}
	}
}

func TestExpandExperimentsEmpty(t *testing.T) {
	if _, err := experiment.Expand(" , "); err == nil {
		t.Fatal("empty selection accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-scale", "galactic"}, &out, &errBuf); err == nil {
		t.Fatal("bad scale accepted")
	}
	if err := run([]string{"-exp", "table99"}, &out, &errBuf); err == nil {
		t.Fatal("bad table accepted")
	}
	if err := run([]string{"-exp", "moon-landing"}, &out, &errBuf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunHetExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("het sweep runs 27 FL jobs at laptop scale")
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-exp", "het", "-q"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "time to attain target accuracy") {
		t.Fatalf("output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "diurnal") {
		t.Fatalf("missing diurnal row:\n%s", out.String())
	}
}

func TestRunScaleExperiment(t *testing.T) {
	var out, errBuf bytes.Buffer
	args := []string{"-exp", "scale", "-scale-parties", "300,3000", "-q"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "Fleet-scale sweep") {
		t.Fatalf("output:\n%s", got)
	}
	if !strings.Contains(got, "3000\t64\t") {
		t.Fatalf("missing 3000-party x 64-shard cell:\n%s", got)
	}
	// Stdout is a pure oracle: a second run prints the same bytes, and what
	// the host measured is on the progress stream only.
	var again, progress bytes.Buffer
	if err := run(args[:len(args)-1], &again, &progress); err != nil {
		t.Fatal(err)
	}
	if again.String() != got {
		t.Fatalf("two runs differ:\n%s\nvs\n%s", got, again.String())
	}
	if !strings.Contains(progress.String(), "rounds/sec") || strings.Contains(got, "/sec") {
		t.Fatalf("throughput belongs on stderr only.\nstdout:\n%s\nstderr:\n%s", got, progress.String())
	}
}

// TestDistWorkerConnectFailsFast pins the internal worker flag: with nothing
// listening the worker mode reports the dial failure instead of hanging.
func TestDistWorkerConnectFailsFast(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-dist-worker-connect", "127.0.0.1:1"}, &out, &errBuf); err == nil {
		t.Fatal("dial failure not reported")
	}
}

// TestRunDistExperiment runs the distributed sweep end to end through the
// compiled binary: the coordinator re-execs it as real shard-worker
// subprocesses, so this covers the -dist-worker-connect plumbing and the
// byte-identity check (RunDist fails the run on any divergence).
func TestRunDistExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary and runs subprocess workers")
	}
	bin := filepath.Join(t.TempDir(), "flipsbench")
	build := exec.Command("go", "build", "-o", bin, ".")
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, msg)
	}
	cmd := exec.Command(bin, "-exp", "dist", "-scale-parties", "500", "-dist-workers", "2", "-q")
	var out, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errBuf
	if err := cmd.Run(); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errBuf.String())
	}
	got := out.String()
	if !strings.Contains(got, "Distributed-aggregation sweep") {
		t.Fatalf("output:\n%s", got)
	}
	for _, cell := range []string{"500\t0\t", "500\t2\t"} {
		if !strings.Contains(got, cell) {
			t.Fatalf("missing cell %q:\n%s", cell, got)
		}
	}
	if strings.Contains(got, "false") {
		t.Fatalf("divergent cell in output:\n%s", got)
	}
}

func TestParseSelectors(t *testing.T) {
	if got := parseSelectors(""); got != nil {
		t.Fatalf("empty list: %v", got)
	}
	got := parseSelectors(" random, loss-prop ")
	if len(got) != 2 || got[0] != "random" || got[1] != "loss-prop" {
		t.Fatalf("parsed %v", got)
	}
	// Names are checked once, against the selection registry, before any
	// compute is spent; the error lists what would have worked.
	var out, errBuf bytes.Buffer
	err := run([]string{"-exp", "tournament", "-selector", "psychic"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "psychic") || !strings.Contains(err.Error(), "flips") {
		t.Fatalf("unknown selector: err = %v, want error listing registered names", err)
	}
	if err := run([]string{"-exp", "tournament", "-selector", " , "}, &out, &errBuf); err == nil {
		t.Fatal("blank list accepted")
	}
}

// TestUnconsumedFlagsAreRejected pins the generic flag hygiene: every input
// flag is checked against what the selected experiments' registry entries
// consume, so none is accepted and silently dropped — and nothing runs first.
func TestUnconsumedFlagsAreRejected(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(trace, []byte("1,0,1\n1,1,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string // a consumer the error must name
	}{
		{[]string{"-exp", "het", "-selector", "oort"}, "tournament"},
		{[]string{"-exp", "het", "-scale-parties", "500"}, "scale"},
		{[]string{"-exp", "chaos", "-dist-workers", "2"}, "dist"},
		{[]string{"-exp", "tee", "-trace", trace}, "async"},
		{[]string{"-exp", "scale", "-scale-parties", "300", "-selector", "random,oort"}, "one selector"},
	} {
		var out, errBuf bytes.Buffer
		err := run(append(tc.args, "-q"), &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%v: err = %v, want a rejection naming %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Fatalf("%v: wrote %q before rejecting the flag", tc.args, out.String())
		}
	}
	// The same flags pass when an experiment that consumes them is selected.
	var out, errBuf bytes.Buffer
	if err := run([]string{"-exp", "scale", "-scale-parties", "300", "-selector", "oort", "-q"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "strategy: oort") {
		t.Fatalf("scale ignored its selector:\n%s", out.String())
	}
}

// TestRunTournamentExperiment runs a reduced tournament through the CLI: two
// selectors, four regimes, with the -selector flag doing the subsetting.
func TestRunTournamentExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("tournament runs FL jobs at laptop scale")
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-exp", "tournament", "-selector", "random,flips", "-q"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Selector tournament", "clean arm reached by", "byzantine-20%"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestParseIntList(t *testing.T) {
	if got, err := parseIntList(""); err != nil || got != nil {
		t.Fatalf("empty list: %v, %v", got, err)
	}
	got, err := parseIntList(" 100, 2000 ")
	if err != nil || len(got) != 2 || got[0] != 100 || got[1] != 2000 {
		t.Fatalf("parsed %v, %v", got, err)
	}
	if _, err := parseIntList("10,x"); err == nil {
		t.Fatal("accepted non-numeric population")
	}
	if _, err := parseIntList("0"); err == nil {
		t.Fatal("accepted zero population")
	}
}

func TestRunChaosExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep runs FL jobs at laptop scale")
	}
	dir := t.TempDir()
	matrix := filepath.Join(dir, "matrix.json")
	spec := `{
		"faults": [
			{"name": "clean"},
			{"name": "byzantine-20", "spec": {"seed": 3, "faultFraction": 0.2, "fault": "byzantine"}}
		],
		"folds": ["mean", "median"],
		"strategies": ["random"]
	}`
	if err := os.WriteFile(matrix, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-exp", "chaos", "-chaos-matrix", matrix, "-q"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Chaos fault-matrix sweep", "byzantine-20", "median"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestChaosMatrixRequiresChaosExperiment(t *testing.T) {
	dir := t.TempDir()
	matrix := filepath.Join(dir, "matrix.json")
	if err := os.WriteFile(matrix, []byte(`{"faults":[{"name":"clean"}],"folds":["mean"],"strategies":["random"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	err := run([]string{"-exp", "tee", "-chaos-matrix", matrix}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("err = %v, want -chaos-matrix gating error", err)
	}
}

func TestRunTeeExperiment(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-exp", "tee"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "TEE clustering overhead") {
		t.Fatalf("output:\n%s", out.String())
	}
	// The durations are wall-clock: progress stream only.
	if strings.Contains(out.String(), "ms") || !strings.Contains(errBuf.String(), "in-enclave=") {
		t.Fatalf("timings belong on stderr only.\nstdout:\n%s\nstderr:\n%s", out.String(), errBuf.String())
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-exp", "tee", "-q", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestRunPrivacyExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("privacy sweep runs FL jobs at laptop scale")
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-exp", "privacy", "-q"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Privacy-ladder sweep", "plaintext", "masked(t=2)", "masked+dp(ε=5,t=2)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}
