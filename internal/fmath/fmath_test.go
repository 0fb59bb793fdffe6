package fmath

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// hostExpIsFMA reports whether this host's math.Exp is the FMA branch of
// exp_amd64.s, which Exp ports: the two branches round this input apart.
var hostExpIsFMA = runtime.GOARCH == "amd64" &&
	math.Float64bits(math.Exp(-46.704873360157016)) == 0x3bb893297ebd32e7

var unary = map[string]func(float64) float64{"exp": Exp, "log": Log, "sin": Sin, "exp2": Exp2}

// TestTable checks every function against testdata/table.txt, the bits
// math.* computed on an amd64 host with FMA (testdata/gen.go): ±0, ±Inf,
// NaNs, subnormals, each function's edges, every Pow special case and
// random words. It runs on every host, so a 386 binary or an amd64 one
// without FMA checks the ports against the same bits.
func TestTable(t *testing.T) {
	t.Parallel()
	f, err := os.Open("testdata/table.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	word := func(s string) float64 {
		b, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		return math.Float64frombits(b)
	}
	counts := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		name := fields[0]
		var got, want float64
		switch {
		case name == "pow" && len(fields) == 4:
			got, want = Pow(word(fields[1]), word(fields[2])), word(fields[3])
		case unary[name] != nil && len(fields) == 3:
			got, want = unary[name](word(fields[1])), word(fields[2])
		default:
			t.Fatalf("malformed table line %q", sc.Text())
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: got %#016x (%v), table %#016x (%v)", sc.Text(), math.Float64bits(got), got, math.Float64bits(want), want)
		}
		counts[name]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"exp", "log", "sin", "exp2", "pow"} {
		if counts[name] < 800 {
			t.Errorf("table holds %d %s lines, want at least 800", counts[name], name)
		}
	}
}

// checkAgainstMath compares each port with math.* for one input pair, on
// the hosts where math.* runs the code the port follows: Log, Sin and Exp2
// on any amd64 host, Exp and Pow only where math.Exp takes its FMA branch.
func checkAgainstMath(t *testing.T, x, y float64) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("math.* runs the ported code only on amd64")
	}
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s(%v [%#x], %v [%#x]) = %v (%#x), math gives %v (%#x)", name,
				x, math.Float64bits(x), y, math.Float64bits(y), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	check("Log", Log(x), math.Log(x))
	check("Sin", Sin(x), math.Sin(x))
	check("Exp2", Exp2(x), math.Exp2(x))
	if hostExpIsFMA {
		check("Exp", Exp(x), math.Exp(x))
		check("Pow", Pow(x, y), math.Pow(x, y))
	}
}

// FuzzFmath compares the ports with math.* on fuzzed bit patterns, and on
// the same patterns scaled into each function's busy range.
func FuzzFmath(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(math.Float64bits(-46.704873360157016), math.Float64bits(0.5))
	f.Add(math.Float64bits(709.78), math.Float64bits(-3))
	f.Add(math.Float64bits(-745.1332191019411), math.Float64bits(2.5))
	f.Add(math.Float64bits(1<<29), math.Float64bits(1e20))
	f.Add(uint64(1), uint64(0x7FF8000000000001))
	f.Fuzz(func(t *testing.T, xb, yb uint64) {
		x, y := math.Float64frombits(xb), math.Float64frombits(yb)
		checkAgainstMath(t, x, y)
		// x in [-750, 750), y in [-64, 64): where the functions do most of
		// their work.
		u, v := float64(xb>>11)*0x1p-53, float64(yb>>11)*0x1p-53
		checkAgainstMath(t, -750+1500*u, -64+128*v)
		checkAgainstMath(t, math.Ldexp(1+u, int(yb%2100)-1075), float64(int64(yb>>54)-512))
	})
}

// TestMatchesMath runs FuzzFmath's comparison over the special values and a
// sweep of each function's range, so a plain test run checks it too.
func TestMatchesMath(t *testing.T) {
	t.Parallel()
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64, -1, 1, 0.5, -0.5, 2, 3, 1e20}
	for _, x := range specials {
		for _, y := range specials {
			checkAgainstMath(t, x, y)
		}
	}
	for i := 0; i <= 200_000; i++ {
		u := float64(i) / 200_000
		checkAgainstMath(t, -750+1500*u, -40+80*u)
		checkAgainstMath(t, math.Ldexp(1+u, i%2100-1075), float64(i%41-20)+u)
	}
}

var sink float64

func BenchmarkExp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink += Exp(float64(i&1023) * -0x1p-7)
	}
}

func BenchmarkExpMath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink += math.Exp(float64(i&1023) * -0x1p-7)
	}
}
