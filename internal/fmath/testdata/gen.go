//go:build ignore

// gen writes table.txt, the bits package fmath must compute on every host:
// one line per input, "<func> <input bits>… <result bits>" in hex, with the
// results taken from GOROOT's math package. Run it on an amd64 host whose
// math.Exp takes its FMA branch (it refuses any other), from
// internal/fmath/testdata:
//
//	go run gen.go > table.txt
package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
)

const randomPerFunc = 800

func main() {
	if runtime.GOARCH != "amd64" || math.Float64bits(math.Exp(-46.704873360157016)) != 0x3bb893297ebd32e7 {
		fmt.Fprintln(os.Stderr, "gen: math.Exp is not amd64's FMA branch on this host")
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	r := rand.New(rand.NewPCG(1, 2))
	word := func() float64 { return math.Float64frombits(r.Uint64()) }
	one := func(name string, f func(float64) float64, xs []float64) {
		for _, x := range xs {
			fmt.Fprintf(w, "%s %016x %016x\n", name, math.Float64bits(x), math.Float64bits(f(x)))
		}
	}
	common := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF8000000000001),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0x7FF8DEADBEEF0000),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), math.Float64frombits(0x0008000000000000),
		0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.5, 2, 3, math.Nextafter(1, 0), math.Nextafter(1, 2), math.Pi, math.E, 1e-300, 1e300,
	}
	along := func(xs []float64, x float64, n int) []float64 {
		lo, hi := x, x
		xs = append(xs, x)
		for i := 0; i < n; i++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			xs = append(xs, lo, hi)
		}
		return xs
	}

	// Exp: the overflow bounds (x·log₂e rounding to 1024, and the
	// assembly's 709.782712893384), the normal and subnormal floors, the
	// underflow to zero, and the rounding ties of x·log₂e.
	exp := append([]float64{}, common...)
	for _, x := range []float64{1023.5 * math.Ln2, 7.09782712893384e+02, 709.78, 709.7, 709, -708, -708.3964185322641, -708.4, -709,
		-744.4400719213812, -745, -745.1332191019411, -745.1332191019412, -745.2, -746, -1000, -46.704873360157016} {
		exp = along(exp, x, 3)
	}
	for n := -1080; n <= 1030; n += 7 {
		exp = along(exp, (float64(n)+0.5)*math.Ln2, 1)
		exp = append(exp, float64(n)*math.Ln2)
	}
	for i := 0; i < randomPerFunc; i++ {
		if i%2 == 0 {
			exp = append(exp, word())
		} else {
			exp = append(exp, -750+r.Float64()*1462)
		}
	}
	one("exp", math.Exp, exp)

	// Log: subnormals, every exponent at the √2/2 fold, 1 and its
	// neighbours.
	const hSqrt2 = 7.07106781186547524401e-01
	lg := append([]float64{}, common...)
	for e := -1074; e <= 1024; e += 5 {
		lg = along(lg, math.Ldexp(hSqrt2, e), 1)
		lg = append(lg, math.Ldexp(1, e))
	}
	lg = along(lg, 1, 4)
	for i := 0; i < randomPerFunc; i++ {
		if i%2 == 0 {
			lg = append(lg, word())
		} else {
			lg = append(lg, math.Float64frombits(r.Uint64()>>1))
		}
	}
	one("log", math.Log, lg)

	// Sin: the octant boundaries, the Payne-Hanek threshold 2²⁹ and above.
	sin := append([]float64{}, common...)
	for n := -40; n <= 40; n++ {
		sin = along(sin, float64(n)*math.Pi/4, 1)
	}
	for _, x := range []float64{1 << 29, 1<<29 + 1, 1 << 30, 1e9, 1e15, 1 << 52, 1e20, 1e100, 1e300} {
		sin = along(sin, x, 2)
		sin = append(sin, -x)
	}
	for i := 0; i < randomPerFunc; i++ {
		switch i % 3 {
		case 0:
			sin = append(sin, word())
		case 1:
			sin = append(sin, -10+r.Float64()*20)
		default:
			sin = append(sin, math.Ldexp(1+r.Float64(), r.IntN(80)-10))
		}
	}
	one("sin", math.Sin, sin)

	// Exp2: the overflow and underflow bounds, integers and half-integers.
	exp2 := append([]float64{}, common...)
	for _, x := range []float64{1.0239999999999999e+03, 1024, 1023, -1022, -1023.5, -1074, -1075, -1080, 0.5, -0.5} {
		exp2 = along(exp2, x, 2)
	}
	for i := 0; i < randomPerFunc; i++ {
		if i%2 == 0 {
			exp2 = append(exp2, word())
		} else {
			exp2 = append(exp2, -1080+r.Float64()*2110)
		}
	}
	one("exp2", math.Exp2, exp2)

	// Pow: every special case of pow.go, then random pairs.
	var pow [][2]float64
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	for _, x := range []float64{0, negZero, 1, -1, 0.5, -0.5, 2, -2, inf, -inf, nan, 3, 1e-310, -1e-310, math.MaxFloat64} {
		for _, y := range []float64{0, negZero, 1, -1, 0.5, -0.5, 2, -2, 3, -3, 2.5, -2.5, inf, -inf, nan,
			1 << 53, 1<<53 - 1, -(1<<53 - 1), 1e20, -1e20, 1 << 63, 1e300, 1.5e3, -1.5e3, 5000.5} {
			pow = append(pow, [2]float64{x, y})
		}
	}
	for i := 0; i < randomPerFunc; i++ {
		switch i % 3 {
		case 0:
			pow = append(pow, [2]float64{word(), word()})
		case 1:
			x := math.Exp(-12 + r.Float64()*24)
			if r.IntN(4) == 0 {
				x = -x
			}
			pow = append(pow, [2]float64{x, float64(r.IntN(101) - 50)})
		default:
			pow = append(pow, [2]float64{math.Exp(-12 + r.Float64()*24), -50 + r.Float64()*100})
		}
	}
	for _, p := range pow {
		fmt.Fprintf(w, "pow %016x %016x %016x\n", math.Float64bits(p[0]), math.Float64bits(p[1]), math.Float64bits(math.Pow(p[0], p[1])))
	}
}
