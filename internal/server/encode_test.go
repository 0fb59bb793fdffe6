package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
	"time"

	"flips"
)

// fuzzBytes draws values from a fuzz input; an exhausted input reads zeros.
type fuzzBytes struct{ data []byte }

func (f *fuzzBytes) byte() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *fuzzBytes) u64() uint64 {
	var w [8]byte
	n := copy(w[:], f.data)
	f.data = f.data[n:]
	return binary.LittleEndian.Uint64(w[:])
}

// floatEdges are the floats where encoding/json's rule turns: signed zeros,
// subnormals, the 1e-6 and 1e21 format switches and their neighbours, e-07
// trimming, the extremes.
var floatEdges = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
	1e-7, -1e-7, 1.5e-7, math.Nextafter(1e-6, 0), 1e-6, -1e-6, math.Nextafter(1e-6, 1),
	1e20, math.Nextafter(1e21, 0), 1e21, -1e21, math.Nextafter(1e21, math.Inf(1)), 1e22,
	math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 0.5, 123456789, 1e-300,
}

// float draws an edge, a raw bit pattern (NaN now and then), or NaN / ±Inf
// outright for the three top bytes.
func (f *fuzzBytes) float() float64 {
	switch c := f.byte(); {
	case c == 253:
		return math.NaN()
	case c == 254:
		return math.Inf(1)
	case c == 255:
		return math.Inf(-1)
	case c%3 == 0:
		return math.Float64frombits(f.u64())
	default:
		return floatEdges[int(c)%len(floatEdges)]
	}
}

func (f *fuzzBytes) int() int { return int(int64(f.u64()) >> (f.byte() % 64)) }

func (f *fuzzBytes) round() flips.RoundPoint {
	p := flips.RoundPoint{
		Round: f.int(), Accuracy: f.float(), Invited: f.int(), Completed: f.int(),
		CommBytes: int64(f.int()), MeanLoss: f.float(), RoundTime: f.float(), SimTime: f.float(),
		ShardsTouched: f.int(), Rejected: f.int(), MaskAborted: f.byte()&1 == 1,
	}
	switch n := int(f.byte() % 9); n {
	case 0: // nil: "null"
	case 1:
		p.PerLabel = []float64{} // empty: "[]"
	default:
		p.PerLabel = make([]float64, n-1)
		for i := range p.PerLabel {
			p.PerLabel[i] = f.float()
		}
	}
	return p
}

func (f *fuzzBytes) result() *flips.SimulationResult {
	if f.byte()%4 == 0 {
		return nil
	}
	r := &flips.SimulationResult{
		PeakAccuracy: f.float(), RoundsToTarget: f.int(), TimeToTarget: f.float(), SimTime: f.float(),
		TargetAccuracy: f.float(), TotalCommBytes: int64(f.int()), NumClusters: f.int(),
	}
	// Up to 96 rounds: long enough to spill mid-History.
	if n := int(f.byte() % 98); n > 0 {
		r.History = make([]flips.RoundPoint, n-1)
		for i := range r.History {
			r.History[i] = f.round()
		}
	}
	return r
}

// time draws the zero time, an instant in one of several zones, or one that
// Time.MarshalJSON refuses (a five-digit or negative year, a 24 h offset).
func (f *fuzzBytes) time() time.Time {
	zones := []*time.Location{
		time.UTC, time.FixedZone("", 0), time.FixedZone("", -7*3600-1800),
		time.FixedZone("", 5*3600+45*60), time.FixedZone("", 24*3600), time.FixedZone("", -23*3600-59*60-59),
	}
	switch c := f.byte(); c % 5 {
	case 0:
		return time.Time{}
	case 1:
		return time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	case 2:
		return time.Date(-1, 12, 31, 23, 59, 59, 999999999, time.UTC)
	default:
		return time.Unix(int64(f.u64()%(1<<34)), int64(f.u64()%1e9)).In(zones[int(c/5)%len(zones)])
	}
}

// FuzzStreamEncoding holds the appenders to encoding/json: for random
// StreamEvent and JobStatus values, jsonWriter writes exactly the bytes
// json.Encoder writes, and where encoding/json refuses a value (NaN, ±Inf, an
// unencodable time) the appender fails too and writes none of its bytes
// after the line before it.
func FuzzStreamEncoding(f *testing.F) {
	f.Add([]byte{}, "", "", "")
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, "job-000001", "done", "")
	f.Add(bytes.Repeat([]byte{7, 200, 31}, 120), "job-<1>", "failed", "round 4: non-finite MeanLoss (the model diverged)")
	f.Add(bytes.Repeat([]byte{254, 1}, 40), "a&b", "x", "<script>\"\\\x00\x1f\x7f")
	f.Add(bytes.Repeat([]byte{253, 97, 4}, 60), "\xff\xfe", "\u2028\u2029", "caf\xc3\xa9 \xc3")
	f.Add(bytes.Repeat([]byte{2, 95, 41, 68}, 300), "id", "running", "\t\n\r")
	f.Fuzz(func(t *testing.T, data []byte, id, state, errMsg string) {
		in := &fuzzBytes{data: data}
		lead := flips.RoundPoint{Round: 1, Accuracy: 0.25, PerLabel: []float64{0.5, 1e-7}}

		var ev StreamEvent
		if in.byte()&1 == 1 {
			p := in.round()
			ev.Round = &p
		}
		ev.Done = in.byte()&1 == 1
		if in.byte()&1 == 1 {
			ev.State, ev.Error = state, errMsg
		}
		ev.Result = in.result()
		check(t, "StreamEvent", &ev,
			func(enc *json.Encoder) error { return enc.Encode(StreamEvent{Round: &lead}) },
			func(jw *jsonWriter) error { return jw.event(&StreamEvent{Round: &lead}) },
			func(jw *jsonWriter) error { return jw.event(&ev) })

		st := JobStatus{
			ID: id, State: state, SubmittedAt: in.time(), StartedAt: in.time(), FinishedAt: in.time(),
			Rounds: in.int(), Result: in.result(),
		}
		if in.byte()&1 == 1 {
			st.Error = errMsg
		}
		check(t, "JobStatus", &st,
			func(enc *json.Encoder) error { return enc.Encode(JobStatus{ID: "job-000000"}) },
			func(jw *jsonWriter) error { return jw.status(&JobStatus{ID: "job-000000"}) },
			func(jw *jsonWriter) error { return jw.status(&st) })
	})
}

// check encodes a lead line and then v with encoding/json, and the same two
// values through a jsonWriter, and compares the bytes and the failure.
func check(t *testing.T, what string, v any, refLead func(*json.Encoder) error, lead, put func(*jsonWriter) error) {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	if err := refLead(enc); err != nil {
		t.Fatal(err)
	}
	wantErr := enc.Encode(v)

	var got bytes.Buffer
	jw := newJSONWriter(&got)
	if err := lead(&jw); err != nil {
		t.Fatal(err)
	}
	gotErr := put(&jw)
	if err := jw.close(); err != nil {
		t.Fatal(err)
	}
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: encoding/json error %v, appender error %v\nvalue %+v", what, wantErr, gotErr, v)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s (error %v):\n got %q\nwant %q", what, wantErr, got.Bytes(), want.Bytes())
	}
}

// TestListAndErrorBodiesMatchEncodingJSON: the listing (entries without
// their Result) and a refusal body, against encoding/json.
func TestListAndErrorBodiesMatchEncodingJSON(t *testing.T) {
	t.Parallel()
	at := time.Date(2026, 10, 20, 17, 8, 5, 123456789, time.FixedZone("", 3600))
	sts := []JobStatus{
		{ID: "job-000001", State: StateDone, SubmittedAt: at, StartedAt: at, FinishedAt: at, Rounds: 3},
		{ID: "job-000002", State: StateFailed, SubmittedAt: at, Error: "round 4: <NaN> & more"},
	}
	for _, tc := range []struct {
		name string
		v    any
		put  func(*jsonWriter) error
	}{
		{"empty list", []JobStatus{}, func(jw *jsonWriter) error { return jw.list(nil) }},
		{"list", sts, func(jw *jsonWriter) error { return jw.list(sts) }},
		{"error", map[string]string{"error": "no such job \"<\xff>\""}, func(jw *jsonWriter) error { return jw.errorBody("no such job \"<\xff>\"") }},
	} {
		var want, got bytes.Buffer
		if err := json.NewEncoder(&want).Encode(tc.v); err != nil {
			t.Fatal(err)
		}
		jw := newJSONWriter(&got)
		if err := tc.put(&jw); err != nil {
			t.Fatal(err)
		}
		jw.close()
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got.Bytes(), want.Bytes())
		}
	}
	// A listing with an unencodable time is refused whole.
	bad := append(append([]JobStatus(nil), sts...), JobStatus{ID: "job-000003", SubmittedAt: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)})
	var got bytes.Buffer
	jw := newJSONWriter(&got)
	if err := jw.list(bad); err == nil {
		t.Error("a listing with a year-10000 time encoded")
	}
	jw.close()
	if got.Len() != 0 {
		t.Errorf("a refused listing wrote %q", got.Bytes())
	}
}
