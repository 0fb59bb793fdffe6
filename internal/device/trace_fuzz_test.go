package device

import (
	"bytes"
	"math"
	"strconv"
	"testing"
	"unicode/utf8"
)

// FuzzTraceSet fuzzes the availability-trace parser — the one loader in the
// repository that consumes external files (CSV or JSON auto-detected, with
// an optional UTF-8 BOM). The invariants: ParseTrace never panics; a
// successful parse yields a TraceSet with at least one device, every row
// non-empty, and total Online/Latency functions (any row/slot, including
// negative and far-out-of-range values, must resolve via wrapping; Latency
// is always positive and finite); and re-serializing the accepted CSV form
// re-parses to the same schedule and multipliers.
func FuzzTraceSet(f *testing.F) {
	f.Add([]byte("1,0,1\n0,1,0\n"))
	f.Add([]byte("# comment\n\n1\n"))
	f.Add([]byte("1,0,\n"))                                // trailing empty field
	f.Add([]byte("2,0\n"))                                 // latency multiplier 2
	f.Add([]byte("1,NaN\n"))                               // NaN token
	f.Add([]byte("1,Inf\n"))                               // Inf token
	f.Add([]byte("-1,0\n"))                                // negative "timestamp"
	f.Add([]byte("1.5,0\n"))                               // fractional multiplier
	f.Add([]byte("0.25,1e2\n"))                            // speedup + exponent form
	f.Add([]byte(""))                                      // empty trace
	f.Add([]byte("\n\n# only comments\n"))                 // no devices
	f.Add([]byte(`{"devices": [[1,0,1],[0,1]]}`))          // valid JSON
	f.Add([]byte(`{"devices": []}`))                       // JSON, no devices
	f.Add([]byte(`{"devices": [[]]}`))                     // JSON, empty row
	f.Add([]byte(`{"devices": [[1],[]]}`))                 // JSON, trailing empty row
	f.Add([]byte(`{"devices": [[2]]}`))                    // JSON multiplier
	f.Add([]byte(`{"devices": [[1,-1]]}`))                 // JSON, negative
	f.Add([]byte(`{"devices": [[1.0, 0.0]]}`))             // JSON float slots
	f.Add([]byte(`{"devices": [[0.5, 3.25]]}`))            // JSON multipliers
	f.Add([]byte(`{"devices": [[1e309]]}`))                // JSON overflow
	f.Add([]byte(`  {"devices": [[1]]}`))                  // leading whitespace
	f.Add([]byte(`{"devices": [[9223372036854775807]]}`))  // int64 max
	f.Add([]byte("\xef\xbb\xbf" + `{"devices": [[1,0]]}`)) // BOM-prefixed JSON
	f.Add([]byte("\xef\xbb\xbf1,0\n"))                     // BOM-prefixed CSV

	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := ParseTrace(data)
		if err != nil {
			if ts != nil {
				t.Fatal("ParseTrace returned both a TraceSet and an error")
			}
			return
		}
		if ts.NumDevices() < 1 {
			t.Fatal("accepted trace has no devices")
		}
		// Online and Latency must be total over any (row, slot), wrapping
		// included, and Latency must always be a usable multiplier.
		probes := []int{-1_000_000, -1, 0, 1, ts.NumDevices(), 1_000_000}
		for _, row := range probes {
			for _, slot := range probes {
				ts.Online(row, slot) // must not panic
				if l := ts.Latency(row, slot); !(l > 0) || math.IsInf(l, 0) {
					t.Fatalf("Latency(%d,%d) = %v", row, slot, l)
				}
			}
		}
		// Round-trip: rebuild the CSV form from the parsed schedule and
		// re-parse; schedules and multipliers must agree (the parser accepts
		// every schedule it produces, with no slot drift). Skip inputs that
		// are not valid UTF-8 CSV in the first place — the reconstruction
		// below is always ASCII.
		if !utf8.Valid(data) {
			return
		}
		var buf bytes.Buffer
		for row := 0; row < ts.NumDevices(); row++ {
			slots := len(ts.rows[row])
			for s := 0; s < slots; s++ {
				if s > 0 {
					buf.WriteByte(',')
				}
				if ts.Online(row, s) {
					// 'g'/-1 formatting round-trips float64 exactly.
					buf.WriteString(strconv.FormatFloat(ts.Latency(row, s), 'g', -1, 64))
				} else {
					buf.WriteByte('0')
				}
			}
			buf.WriteByte('\n')
		}
		again, err := ParseTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("re-parsing a produced schedule failed: %v", err)
		}
		if again.NumDevices() != ts.NumDevices() {
			t.Fatalf("round-trip device count %d != %d", again.NumDevices(), ts.NumDevices())
		}
		for row := 0; row < ts.NumDevices(); row++ {
			for s := 0; s < len(ts.rows[row]); s++ {
				if again.Online(row, s) != ts.Online(row, s) {
					t.Fatalf("round-trip schedule drift at row %d slot %d", row, s)
				}
				if again.Latency(row, s) != ts.Latency(row, s) {
					t.Fatalf("round-trip latency drift at row %d slot %d", row, s)
				}
			}
		}
	})
}
