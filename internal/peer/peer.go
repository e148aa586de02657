// Package peer is the HTTP shard transport of the federated serving
// plane: it lets a coordinator node answer one query over remote
// xontoserve shard nodes with the same exactness and degradation
// guarantees the in-process cluster (internal/shard) already gives.
//
// Each peer node mounts a small versioned JSON API:
//
//	POST /shard/search   - one scatter leg: keywords, k, and the
//	                       coordinator-resolved keyword norms in, the
//	                       shard-local top-k out
//	GET  /shard/stats    - the peer's local IR statistics (N, DF,
//	                       total length) per strategy;
//	                       with ?keyword=w, the peer's local raw-BM25
//	                       maximum for that keyword
//	POST /shard/stats    - install the cluster-merged global statistics
//	                       (the distributed-IR exchange's second half)
//	GET  /shard/fragment - hydrate one result: snippet and/or XML
//	                       fragment by Dewey ID
//
// Request and response bodies are size-capped, every payload carries a
// version field, and the caller's deadline travels as both the request
// context and an X-Deadline header so the peer stops working the moment
// an answer can no longer be used.
//
// The client side (Client) gives each peer its own pooled connections,
// a circuit breaker, jittered-backoff retries for these idempotent
// calls, and hedged search requests: when a leg has not answered after
// a p95-derived delay, the same request is re-issued to the same peer
// and the first good answer wins (counters record hedges fired, won,
// and wasted).
//
// Failures never surface as partial decodes: a torn or truncated
// response body, an unexpected status, a refused connection, or an
// over-size payload each become a typed *TransportError that feeds the
// peer's breaker, and the coordinator degrades to partial results.
package peer

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// APIVersion is the wire-format version every payload carries; a peer
// refuses requests from a future major version rather than guessing.
const APIVersion = 1

// Mounted paths of the peer shard API.
const (
	PathSearch   = "/shard/search"
	PathStats    = "/shard/stats"
	PathFragment = "/shard/fragment"
)

// DeadlineHeader carries the coordinator's absolute deadline in
// RFC3339Nano; the peer serves under min(own budget, this).
const DeadlineHeader = "X-Deadline"

// Default body caps. Search requests are small (keywords and norms);
// stats installs carry a DF map over the merged vocabulary, so their
// cap is generous.
const (
	DefaultMaxSearchBody   = 1 << 20  // 1 MiB
	DefaultMaxStatsBody    = 64 << 20 // 64 MiB
	DefaultMaxResponseBody = 64 << 20 // 64 MiB, client-side read cap
)

// SearchRequestWire is the /shard/search request body.
type SearchRequestWire struct {
	V        int      `json:"v"`
	Strategy string   `json:"strategy"`
	Keywords []string `json:"keywords"`
	K        int      `json:"k"`
	// Offset pages past the first Offset ranked results. A coordinator
	// normally folds its caller's offset into K and sends Offset 0 (each
	// leg must answer the full window for the merge to be exact); the
	// field exists so a peer can also be queried directly as a paging
	// search backend.
	Offset  int  `json:"offset,omitempty"`
	Explain bool `json:"explain"`
	// Norms are the coordinator-resolved cluster-global normalization
	// divisors per keyword (the paper's per-keyword max raw BM25 over
	// the whole federation). The peer pins them before scoring so its
	// node scores are byte-identical to a single-node system over the
	// full corpus.
	Norms map[string]float64 `json:"norms,omitempty"`
}

// MatchWire is one keyword's supporting node in a wire result.
type MatchWire struct {
	Keyword string  `json:"keyword"`
	ID      string  `json:"id"`
	Path    string  `json:"path"`
	Score   float64 `json:"score"`
}

// ResultWire is one ranked answer as it crosses the wire.
type ResultWire struct {
	Root     string      `json:"root"`
	Score    float64     `json:"score"`
	Document string      `json:"document"`
	Path     string      `json:"path"`
	Matches  []MatchWire `json:"matches,omitempty"`
	Snippet  string      `json:"snippet,omitempty"`
}

// PruningWire reports the peer-local top-k pruning work of one leg, so
// the coordinator's aggregate pruning stats cover remote shards too.
type PruningWire struct {
	PostingsScored  int64 `json:"postings_scored"`
	BlocksSkipped   int64 `json:"blocks_skipped"`
	DocsSkipped     int64 `json:"docs_skipped"`
	EarlyTerminated bool  `json:"early_terminated"`
}

// SearchResponseWire is the /shard/search response body. Degraded is
// written only by peers of an older release, whose keyword builds
// could fall back to IR-only scoring; this release never sets it.
type SearchResponseWire struct {
	V          int          `json:"v"`
	Results    []ResultWire `json:"results"`
	Degraded   bool         `json:"degraded,omitempty"`
	Generation uint64       `json:"generation"`
	ElapsedUS  int64        `json:"elapsed_us"`
	Pruning    *PruningWire `json:"pruning,omitempty"`
}

// StrategyStatsWire is one strategy's local statistics contribution.
// Peers of an older release also carry a structural-rank normalizer
// in it, which decoding ignores (no decoder here rejects unknown
// fields); they read its absence as 0, which they ignored too.
type StrategyStatsWire struct {
	N        int            `json:"n"`
	TotalLen int64          `json:"total_len"`
	DF       map[string]int `json:"df"`
}

// StatsWire is the GET /shard/stats response: the peer's partition-
// local statistics, per strategy.
type StatsWire struct {
	V          int                          `json:"v"`
	Documents  int                          `json:"documents"`
	Generation uint64                       `json:"generation"`
	Strategies map[string]StrategyStatsWire `json:"strategies"`
}

// NormsWire is the GET /shard/stats?keyword=w response: the peer's
// local raw-BM25 maximum for one keyword, per strategy.
type NormsWire struct {
	V       int                `json:"v"`
	Keyword string             `json:"keyword"`
	Norms   map[string]float64 `json:"norms"`
}

// InstallWire is the POST /shard/stats request: the cluster-merged
// global statistics the peer must score with from now on.
type InstallWire struct {
	V          int                          `json:"v"`
	Strategies map[string]StrategyStatsWire `json:"strategies"`
}

// InstallAckWire acknowledges a stats install.
type InstallAckWire struct {
	V          int    `json:"v"`
	Generation uint64 `json:"generation"`
	Installed  int    `json:"installed"`
}

// FragmentWire is the GET /shard/fragment response.
type FragmentWire struct {
	V        int    `json:"v"`
	Found    bool   `json:"found"`
	Snippet  string `json:"snippet,omitempty"`
	Fragment string `json:"fragment,omitempty"`
}

// ErrBreakerOpen is returned by the client without touching the network
// while the peer's circuit breaker is open.
var ErrBreakerOpen = errors.New("peer: circuit breaker open")

// Kind classifies a transport failure. Every kind counts against the
// peer's breaker except a caller-initiated cancellation (a
// KindDeadline whose cause is context.Canceled): a deadline blown by a
// slow peer is the peer's fault; a caller hanging up is not.
type Kind string

const (
	// KindRefused is a connection-level failure: refused, reset, DNS.
	KindRefused Kind = "refused"
	// KindStatus is an unexpected HTTP status (5xx and friends).
	KindStatus Kind = "status"
	// KindTruncated is a torn or truncated response body: the bytes on
	// the wire did not decode into a complete payload. The partial
	// decode is discarded — a truncated answer is an error, never a
	// short result list.
	KindTruncated Kind = "truncated"
	// KindDeadline is a context deadline or cancellation.
	KindDeadline Kind = "deadline"
	// KindTooLarge is a response body over the client's read cap.
	KindTooLarge Kind = "toobig"
	// KindProtocol is a version or content mismatch.
	KindProtocol Kind = "protocol"
)

// TransportError is the typed failure of one peer RPC. It wraps the
// underlying cause, so errors.Is(err, context.DeadlineExceeded) and
// friends keep working through it.
type TransportError struct {
	Peer string
	Op   string
	Kind Kind
	Err  error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("peer %s: %s: %s: %v", e.Peer, e.Op, e.Kind, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// AsTransportError unwraps err to a *TransportError if one is in the
// chain.
func AsTransportError(err error) (*TransportError, bool) {
	var te *TransportError
	if errors.As(err, &te) {
		return te, true
	}
	return nil, false
}

// SetDeadlineHeader stamps an absolute deadline onto an outgoing
// request (no-op without one).
func SetDeadlineHeader(h http.Header, deadline time.Time, ok bool) {
	if ok {
		h.Set(DeadlineHeader, deadline.UTC().Format(time.RFC3339Nano))
	}
}

// ParseDeadlineHeader recovers the coordinator's absolute deadline from
// a request ("" or malformed values report no deadline — the peer then
// serves under its own budget only).
func ParseDeadlineHeader(h http.Header) (time.Time, bool) {
	v := h.Get(DeadlineHeader)
	if v == "" {
		return time.Time{}, false
	}
	t, err := time.Parse(time.RFC3339Nano, v)
	if err != nil {
		return time.Time{}, false
	}
	return t, true
}

// errorWire is the JSON error body of the shard API (same shape as the
// public endpoints').
type errorWire struct {
	Error string `json:"error"`
}

// statusError renders a client-visible status failure for logs.
func statusError(status int, body string) error {
	if body == "" {
		body = http.StatusText(status)
	}
	return fmt.Errorf("http %s: %s", strconv.Itoa(status), body)
}
