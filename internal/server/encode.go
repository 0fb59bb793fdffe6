package server

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"sync"
	"time"

	"flips"
)

// The server writes every JSON response body through jsonWriter, by
// hand-written appenders for StreamEvent and JobStatus: byte for byte what
// encoding/json's Encoder (HTML escaping on) writes for the same value,
// newline included. A 5,000-round job is 15,000 RoundPoints on the wire —
// each streamed round, the terminal event's History and GET /jobs/{id} — and
// reflection was the larger part of encoding them. Strings and times still go
// through their JSON encoders (json.Marshal, Time.MarshalJSON), so escaping,
// invalid UTF-8 and out-of-range years read exactly as before;
// FuzzStreamEncoding holds the appenders to encoding/json.

// streamChunk is the write-through size: a jsonWriter writes its buffer to
// the ResponseWriter once it holds this many bytes, at the next value
// boundary, so a body of any length (the terminal event carries the whole
// History) is never held whole.
const streamChunk = 8 << 10

// maxPooledBuf bounds the buffers kept for reuse: a buffer grown past it by
// one wide value (a RoundPoint with thousands of labels, or a job listing)
// is dropped rather than held by the pool.
const maxPooledBuf = 64 << 10

var jsonBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2*streamChunk)
	return &b
}}

// errNonFinite is the write error for a NaN or ±Inf float, which JSON cannot
// carry; encoding/json refuses the same values.
var errNonFinite = errors.New("server: non-finite float has no JSON encoding")

// jsonWriter appends JSON values to a pooled buffer and writes the buffer
// through to w in chunks of about streamChunk bytes. A value that cannot be
// encoded (a non-finite float, an unencodable time) writes none of its
// bytes, as encoding/json writes none of a value it refuses: each appender
// checks its value before it spills any of it. The first write error sticks.
type jsonWriter struct {
	w   io.Writer
	bp  *[]byte
	buf []byte
	err error
}

func newJSONWriter(w io.Writer) jsonWriter {
	bp := jsonBufs.Get().(*[]byte)
	return jsonWriter{w: w, bp: bp, buf: (*bp)[:0]}
}

// spill writes the buffer through once it holds a chunk.
func (jw *jsonWriter) spill() {
	if len(jw.buf) >= streamChunk {
		jw.flush()
	}
}

// flush writes whatever the buffer holds and returns the first write error.
func (jw *jsonWriter) flush() error {
	if len(jw.buf) > 0 && jw.err == nil {
		_, jw.err = jw.w.Write(jw.buf)
	}
	jw.buf = jw.buf[:0]
	return jw.err
}

// close flushes and returns the buffer to the pool; the writer is spent.
func (jw *jsonWriter) close() error {
	err := jw.flush()
	if cap(jw.buf) <= maxPooledBuf {
		*jw.bp = jw.buf
		jsonBufs.Put(jw.bp)
	}
	jw.bp, jw.buf = nil, nil
	return err
}

// event appends ev as one NDJSON line.
func (jw *jsonWriter) event(ev *StreamEvent) error {
	if (ev.Round != nil && !finiteRound(ev.Round)) || (ev.Result != nil && !finiteResult(ev.Result)) {
		return errNonFinite
	}
	b := append(jw.buf, '{')
	if ev.Round != nil {
		b = append(b, `"Round":`...)
		b = appendRound(b, ev.Round)
	}
	if ev.Done {
		b = appendKey(b, "Done")
		b = append(b, "true"...)
	}
	if ev.State != "" {
		b = appendKey(b, "State")
		b = appendString(b, ev.State)
	}
	if ev.Error != "" {
		b = appendKey(b, "Error")
		b = appendString(b, ev.Error)
	}
	if ev.Result != nil {
		b = appendKey(b, "Result")
		jw.buf = b
		jw.result(ev.Result)
		b = jw.buf
	}
	jw.buf = append(b, "}\n"...)
	jw.spill()
	return jw.err
}

// status appends st as one JSON line.
func (jw *jsonWriter) status(st *JobStatus) error {
	if st.Result != nil && !finiteResult(st.Result) {
		return errNonFinite
	}
	n := len(jw.buf)
	b, err := appendStatusHead(jw.buf, st)
	if err != nil {
		jw.buf = jw.buf[:n]
		return err
	}
	if st.Result != nil {
		b = append(b, `,"Result":`...)
		jw.buf = b
		jw.result(st.Result)
		b = jw.buf
	}
	jw.buf = append(b, "}\n"...)
	jw.spill()
	return jw.err
}

// list appends sts as one JSON array line, each entry without its Result:
// the listing stays light, and a client fetches one job for its payload. It
// is held until it is whole, so an entry that cannot be encoded leaves
// nothing written.
func (jw *jsonWriter) list(sts []JobStatus) error {
	n := len(jw.buf)
	b := append(jw.buf, '[')
	for i := range sts {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendStatusHead(b, &sts[i]); err != nil {
			jw.buf = b[:n]
			return err
		}
		b = append(b, '}')
	}
	jw.buf = append(b, "]\n"...)
	jw.spill()
	return jw.err
}

// errorBody appends the {"error": msg} body of a refusal.
func (jw *jsonWriter) errorBody(msg string) error {
	b := append(jw.buf, `{"error":`...)
	b = appendString(b, msg)
	jw.buf = append(b, "}\n"...)
	jw.spill()
	return jw.err
}

// result appends r, spilling between History entries. The caller has
// checked r with finiteResult.
func (jw *jsonWriter) result(r *flips.SimulationResult) {
	b := append(jw.buf, `{"History":`...)
	if r.History == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.History {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendRound(b, &r.History[i])
			jw.buf = b
			jw.spill()
			b = jw.buf
		}
		b = append(b, ']')
	}
	jw.buf = appendResultTail(b, r)
}

// appendResultTail appends the SimulationResult fields after History and the
// closing brace.
func appendResultTail(b []byte, r *flips.SimulationResult) []byte {
	b = append(b, `,"PeakAccuracy":`...)
	b = appendFloat(b, r.PeakAccuracy)
	b = append(b, `,"RoundsToTarget":`...)
	b = strconv.AppendInt(b, int64(r.RoundsToTarget), 10)
	b = append(b, `,"TimeToTarget":`...)
	b = appendFloat(b, r.TimeToTarget)
	b = append(b, `,"SimTime":`...)
	b = appendFloat(b, r.SimTime)
	b = append(b, `,"TargetAccuracy":`...)
	b = appendFloat(b, r.TargetAccuracy)
	b = append(b, `,"TotalCommBytes":`...)
	b = strconv.AppendInt(b, r.TotalCommBytes, 10)
	b = append(b, `,"NumClusters":`...)
	b = strconv.AppendInt(b, int64(r.NumClusters), 10)
	return append(b, '}')
}

// appendStatusHead appends a JobStatus from its opening brace through Error,
// leaving Result and the closing brace to the caller.
func appendStatusHead(b []byte, st *JobStatus) ([]byte, error) {
	b = append(b, `{"ID":`...)
	b = appendString(b, st.ID)
	b = append(b, `,"State":`...)
	b = appendString(b, st.State)
	var err error
	for _, f := range [...]struct {
		key string
		t   time.Time
	}{{`,"SubmittedAt":`, st.SubmittedAt}, {`,"StartedAt":`, st.StartedAt}, {`,"FinishedAt":`, st.FinishedAt}} {
		b = append(b, f.key...)
		if b, err = appendTime(b, f.t); err != nil {
			return b, err
		}
	}
	b = append(b, `,"Rounds":`...)
	b = strconv.AppendInt(b, int64(st.Rounds), 10)
	if st.Error != "" {
		b = append(b, `,"Error":`...)
		b = appendString(b, st.Error)
	}
	return b, nil
}

// appendRound appends p as encoding/json writes a RoundStats.
func appendRound(b []byte, p *flips.RoundPoint) []byte {
	b = append(b, `{"Round":`...)
	b = strconv.AppendInt(b, int64(p.Round), 10)
	b = append(b, `,"Accuracy":`...)
	b = appendFloat(b, p.Accuracy)
	b = append(b, `,"PerLabel":`...)
	if p.PerLabel == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range p.PerLabel {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, v)
		}
		b = append(b, ']')
	}
	b = append(b, `,"Invited":`...)
	b = strconv.AppendInt(b, int64(p.Invited), 10)
	b = append(b, `,"Completed":`...)
	b = strconv.AppendInt(b, int64(p.Completed), 10)
	b = append(b, `,"CommBytes":`...)
	b = strconv.AppendInt(b, p.CommBytes, 10)
	b = append(b, `,"MeanLoss":`...)
	b = appendFloat(b, p.MeanLoss)
	b = append(b, `,"RoundTime":`...)
	b = appendFloat(b, p.RoundTime)
	b = append(b, `,"SimTime":`...)
	b = appendFloat(b, p.SimTime)
	b = append(b, `,"ShardsTouched":`...)
	b = strconv.AppendInt(b, int64(p.ShardsTouched), 10)
	b = append(b, `,"Rejected":`...)
	b = strconv.AppendInt(b, int64(p.Rejected), 10)
	b = append(b, `,"MaskAborted":`...)
	b = strconv.AppendBool(b, p.MaskAborted)
	return append(b, '}')
}

// appendFloat appends a finite f by encoding/json's float64 rule: the
// shortest representation, in exponent form below 1e-6 and at or above 1e21
// (magnitude), with a two-digit negative exponent trimmed to one ("e-07" →
// "e-7").
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendKey appends a member key after the first member of an object whose
// members are all optional: a comma unless the object was just opened.
func appendKey(b []byte, key string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, key...)
	return append(b, `":`...)
}

// appendString appends s as a JSON string. Plain printable ASCII is quoted as
// is; anything encoding/json would escape — quotes, backslashes, control
// bytes, <, >, &, non-ASCII (U+2028, U+2029, invalid UTF-8) — goes through
// json.Marshal itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendTime appends t as Time.MarshalJSON writes it, and fails where it
// fails (a year outside [0, 9999]).
func appendTime(b []byte, t time.Time) ([]byte, error) {
	q, err := t.MarshalJSON()
	if err != nil {
		return b, err
	}
	return append(b, q...), nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// finiteRound reports whether every float of p has a JSON encoding.
func finiteRound(p *flips.RoundPoint) bool {
	if !finite(p.Accuracy) || !finite(p.MeanLoss) || !finite(p.RoundTime) || !finite(p.SimTime) {
		return false
	}
	for _, v := range p.PerLabel {
		if !finite(v) {
			return false
		}
	}
	return true
}

// finiteResult reports whether every float of r has a JSON encoding.
func finiteResult(r *flips.SimulationResult) bool {
	if !finite(r.PeakAccuracy) || !finite(r.TimeToTarget) || !finite(r.SimTime) || !finite(r.TargetAccuracy) {
		return false
	}
	for i := range r.History {
		if !finiteRound(&r.History[i]) {
			return false
		}
	}
	return true
}
