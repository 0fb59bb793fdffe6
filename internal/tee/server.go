package tee

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"flips/internal/wire"
)

// The TEE service speaks wire's length-prefixed binary framing (shared with
// internal/dist): version byte wireVersion, one JSON payload per frame.
const (
	wireVersion byte = 1
	frameReq    byte = 1
	frameResp   byte = 2
)

// maxFrame bounds one JSON frame in either direction; it aliases the shared
// wire limit so both protocols in this repository agree on the bound.
const maxFrame = wire.MaxFrame

// ErrFrameTooLarge reports a request or response exceeding the 16 MiB wire
// frame limit. Clients see it from RemoteEnclave calls whose payload cannot
// fit one frame; servers answer an oversized request with an error response
// carrying the same text before closing the connection.
var ErrFrameTooLarge = wire.ErrFrameTooLarge

// request is the single wire message type of the TEE service. Operations
// mirror the enclave API; all byte fields are base64 via encoding/json.
type request struct {
	Op         string `json:"op"`
	Nonce      []byte `json:"nonce,omitempty"`
	Pub        []byte `json:"pub,omitempty"`
	Session    string `json:"session,omitempty"`
	Ciphertext []byte `json:"ciphertext,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	Round      int    `json:"round,omitempty"`
	Target     int    `json:"target,omitempty"`
	Selected   []int  `json:"selected,omitempty"`
	Completed  []int  `json:"completed,omitempty"`
	Stragglers []int  `json:"stragglers,omitempty"`
}

type response struct {
	Error   string `json:"error,omitempty"`
	Quote   *Quote `json:"quote,omitempty"`
	Session string `json:"session,omitempty"`
	Parties []int  `json:"parties,omitempty"`
	Count   int    `json:"count,omitempty"`
}

// requestTimeout bounds one client round trip (the slowest being "cluster",
// which answers only after the enclave's K-Means sweep) and the server's write
// of one reply; idleTimeout bounds how long an accepted connection may take to
// deliver its next whole request frame. A peer silent past either is dropped —
// a client that still needs the enclave dials again. Variables only so the
// hostile-peer tests can shorten them.
var (
	requestTimeout = 2 * time.Minute
	idleTimeout    = 5 * time.Minute
)

// Server exposes an Enclave over TCP, one JSON request and one JSON response
// per wire frame — the deployment shape of Figure 3, where remote parties
// reach the aggregator's TEE across the network. (Production would wrap this
// listener in TLS; the payload privacy does not depend on it because label
// distributions are already sealed to the enclave's channel key.)
type Server struct {
	enclave *Enclave
	ln      *wire.Listener
}

// NewServer wraps an enclave for network serving.
func NewServer(enclave *Enclave) *Server {
	s := &Server{enclave: enclave}
	s.ln = wire.NewListener("tee server", s.serveConn)
	return s
}

// Listen starts serving on addr (e.g. "127.0.0.1:0") and returns the bound
// address. Serving continues until Close.
func (s *Server) Listen(addr string) (string, error) { return s.ln.Listen(addr) }

// Close stops the listener, closes active connections, and waits for all
// serving goroutines to exit. Close is idempotent.
func (s *Server) Close() error { return s.ln.Close() }

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	codec := wire.NewCodec(conn, wireVersion)
	reply := func(resp response) bool {
		payload, err := json.Marshal(resp)
		if err != nil {
			return false
		}
		_ = conn.SetWriteDeadline(time.Now().Add(requestTimeout))
		return codec.Send(frameResp, payload) == nil
	}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
		typ, payload, err := codec.Recv()
		if err != nil {
			var bv *wire.BadVersionError
			switch {
			case errors.Is(err, wire.ErrFrameTooLarge):
				// The announced payload exceeds the frame bound, so the
				// stream can no longer be re-framed: answer with an explicit
				// error, then briefly drain whatever the client is still
				// sending so the close is a clean FIN rather than an RST
				// that could destroy the error response in flight.
				_ = reply(response{Error: "request " + ErrFrameTooLarge.Error()})
				wire.Drain(conn, 250*time.Millisecond)
			case errors.As(err, &bv):
				// Well-formed foreign frame: its payload was consumed, so
				// the error reply still lands on a framed stream.
				_ = reply(response{Error: bv.Error()})
			}
			return
		}
		if typ != frameReq {
			_ = reply(response{Error: fmt.Sprintf("unexpected frame type %d", typ)})
			return
		}
		var req request
		if err := json.Unmarshal(payload, &req); err != nil {
			_ = reply(response{Error: "malformed request: " + err.Error()})
			return
		}
		if !reply(s.handle(req)) {
			return
		}
	}
}

func (s *Server) handle(req request) response {
	switch req.Op {
	case "quote":
		q := s.enclave.Quote(req.Nonce)
		return response{Quote: &q}
	case "open":
		session, err := s.enclave.OpenSession(req.Pub)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{Session: session}
	case "submit":
		if err := s.enclave.Submit(req.Session, req.Ciphertext); err != nil {
			return response{Error: err.Error()}
		}
		return response{}
	case "cluster":
		if err := s.enclave.Cluster(req.Seed); err != nil {
			return response{Error: err.Error()}
		}
		return response{}
	case "numclusters":
		n, err := s.enclave.NumClusters()
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{Count: n}
	case "select":
		parties, err := s.enclave.SelectParticipants(req.Round, req.Target)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{Parties: parties}
	case "observe":
		if err := s.enclave.ObserveRound(req.Selected, req.Completed, req.Stragglers, req.Round); err != nil {
			return response{Error: err.Error()}
		}
		return response{}
	case "wipe":
		s.enclave.Wipe()
		return response{}
	default:
		return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// RemoteEnclave is the client stub: it speaks the Server protocol and
// implements EnclaveAPI for parties plus the aggregator-side operations.
type RemoteEnclave struct {
	mu    sync.Mutex
	conn  net.Conn
	codec *wire.Codec
}

var _ EnclaveAPI = (*RemoteEnclave)(nil)

// DialEnclave connects to a TEE server.
func DialEnclave(addr string) (*RemoteEnclave, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tee dial: %w", err)
	}
	return &RemoteEnclave{conn: conn, codec: wire.NewCodec(conn, wireVersion)}, nil
}

// Close closes the connection.
func (r *RemoteEnclave) Close() error { return r.conn.Close() }

func (r *RemoteEnclave) roundTrip(req request) (response, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return response{}, fmt.Errorf("tee send: %w", err)
	}
	if len(payload) > maxFrame {
		// The codec would refuse this anyway; fail with the same request-
		// prefixed error the server reports so callers see one message.
		return response{}, fmt.Errorf("tee send: request %w", ErrFrameTooLarge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	typ, body, err := wire.RoundTrip(r.conn, r.codec, requestTimeout, frameReq, payload)
	if err != nil {
		if errors.Is(err, wire.ErrFrameTooLarge) {
			return response{}, fmt.Errorf("tee recv: response %w", ErrFrameTooLarge)
		}
		return response{}, fmt.Errorf("tee round trip: %w", err)
	}
	if typ != frameResp {
		return response{}, fmt.Errorf("tee recv: unexpected frame type %d", typ)
	}
	var resp response
	if err := json.Unmarshal(body, &resp); err != nil {
		return response{}, fmt.Errorf("tee decode: %w", err)
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("tee remote: %s", resp.Error)
	}
	return resp, nil
}

// Quote implements EnclaveAPI. Transport errors surface as a zero Quote,
// which fails verification — the failure mode attestation is designed for.
func (r *RemoteEnclave) Quote(nonce []byte) Quote {
	resp, err := r.roundTrip(request{Op: "quote", Nonce: nonce})
	if err != nil || resp.Quote == nil {
		return Quote{}
	}
	return *resp.Quote
}

// OpenSession implements EnclaveAPI.
func (r *RemoteEnclave) OpenSession(partyPub []byte) (string, error) {
	resp, err := r.roundTrip(request{Op: "open", Pub: partyPub})
	if err != nil {
		return "", err
	}
	return resp.Session, nil
}

// Submit implements EnclaveAPI.
func (r *RemoteEnclave) Submit(sessionID string, ciphertext []byte) error {
	_, err := r.roundTrip(request{Op: "submit", Session: sessionID, Ciphertext: ciphertext})
	return err
}

// Cluster triggers in-enclave clustering (aggregator side).
func (r *RemoteEnclave) Cluster(seed uint64) error {
	_, err := r.roundTrip(request{Op: "cluster", Seed: seed})
	return err
}

// NumClusters reports |C|.
func (r *RemoteEnclave) NumClusters() (int, error) {
	resp, err := r.roundTrip(request{Op: "numclusters"})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// SelectParticipants runs FLIPS selection inside the remote enclave.
func (r *RemoteEnclave) SelectParticipants(round, target int) ([]int, error) {
	resp, err := r.roundTrip(request{Op: "select", Round: round, Target: target})
	if err != nil {
		return nil, err
	}
	return resp.Parties, nil
}

// ObserveRound forwards round feedback for straggler tracking.
func (r *RemoteEnclave) ObserveRound(selected, completed, stragglers []int, round int) error {
	_, err := r.roundTrip(request{
		Op: "observe", Round: round,
		Selected: selected, Completed: completed, Stragglers: stragglers,
	})
	return err
}

// Wipe asks the enclave to delete all party state.
func (r *RemoteEnclave) Wipe() error {
	_, err := r.roundTrip(request{Op: "wipe"})
	return err
}
