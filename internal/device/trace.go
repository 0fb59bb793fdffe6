package device

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// TraceSet is a replayed real-world availability trace: one row of slots per
// traced device (e.g. exported from the FLASH/Oort user-behavior traces).
// A slot value of 0 means offline; any positive value means online with that
// latency multiplier applied to the device's round duration (1 = nominal
// speed, 3 = a 3x brownout, 0.5 = a temporarily fast device). The historical
// binary form — slots of exactly 0/1 — is the degenerate case where every
// online slot runs at nominal speed. Traces replace the synthetic
// churn/diurnal processes with measured behavior: a fleet larger than the
// trace wraps rows (party ID modulo trace size), and a job longer than a row
// wraps slots, so any (parties, rounds) shape replays deterministically.
//
// Mapping is by party ID alone — no RNG is consumed — so a traced fleet's
// availability and slowdowns are a pure function of the trace file and the
// party IDs, independent of seed, engine parallelism and aggregation policy.
type TraceSet struct {
	rows [][]float64
}

// utf8BOM is the UTF-8 byte-order mark some exporters prepend; it must be
// stripped before format auto-detection or a BOM-prefixed JSON trace is
// misrouted to the CSV parser.
var utf8BOM = []byte{0xEF, 0xBB, 0xBF}

// ParseTrace parses a trace from its serialized form, auto-detecting the
// format: JSON ({"devices": [[1,0,1], ...]}, one inner array per device,
// slots 0 or positive latency multipliers) when the first non-space byte is
// '{', otherwise CSV (one line per device, comma-separated slots; blank
// lines and #-comments skipped). A leading UTF-8 BOM is ignored. Rows may
// have different lengths; each wraps independently.
func ParseTrace(data []byte) (*TraceSet, error) {
	data = bytes.TrimPrefix(data, utf8BOM)
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		return parseTraceJSON(trimmed)
	}
	return parseTraceCSV(data)
}

// LoadTraceFile reads and parses a trace file.
func LoadTraceFile(path string) (*TraceSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("device: trace: %w", err)
	}
	ts, err := ParseTrace(data)
	if err != nil {
		return nil, fmt.Errorf("device: trace %s: %w", path, err)
	}
	return ts, nil
}

func parseTraceJSON(data []byte) (*TraceSet, error) {
	var doc struct {
		Devices [][]float64 `json:"devices"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("device: trace JSON: %w", err)
	}
	for i, dev := range doc.Devices {
		for j, v := range dev {
			if err := checkSlot(v); err != nil {
				return nil, fmt.Errorf("device: trace device %d slot %d: %w", i, j, err)
			}
		}
	}
	return newTraceSet(doc.Devices)
}

func parseTraceCSV(data []byte) (*TraceSet, error) {
	var rows [][]float64
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		row := make([]float64, 0, len(fields))
		for _, f := range fields {
			f = strings.TrimSpace(f)
			var v float64
			switch f {
			case "0": // fast paths for the common binary form
			case "1":
				v = 1
			default:
				parsed, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("device: trace CSV line %d: slot %q is not a number", lineNo+1, f)
				}
				v = parsed
			}
			if err := checkSlot(v); err != nil {
				return nil, fmt.Errorf("device: trace CSV line %d: slot %q: %w", lineNo+1, f, err)
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	return newTraceSet(rows)
}

// checkSlot validates one trace slot: 0 (offline) or a positive finite
// latency multiplier.
func checkSlot(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("value %v is not 0 or a positive latency multiplier", v)
	}
	return nil
}

func newTraceSet(rows [][]float64) (*TraceSet, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("device: trace has no devices")
	}
	for i, row := range rows {
		if len(row) == 0 {
			return nil, fmt.Errorf("device: trace device %d has no slots", i)
		}
	}
	return &TraceSet{rows: rows}, nil
}

// NumDevices returns the number of traced devices.
func (t *TraceSet) NumDevices() int { return len(t.rows) }

// Online reports whether trace row `row` (wrapped modulo the trace size) is
// online at slot `slot` (wrapped modulo the row length).
func (t *TraceSet) Online(row, slot int) bool {
	r := t.rows[mod(row, len(t.rows))]
	return r[mod(slot, len(r))] > 0
}

// Latency returns the latency multiplier of trace row `row` at slot `slot`
// (both wrapped like Online). Offline slots report 1: a duration multiplier
// is only meaningful while the device participates.
func (t *TraceSet) Latency(row, slot int) float64 {
	r := t.rows[mod(row, len(t.rows))]
	if v := r[mod(slot, len(r))]; v > 0 {
		return v
	}
	return 1
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}
