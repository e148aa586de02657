package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/ontoscore"
	"repro/internal/query"
)

// SearchRequest is the unified search request of the system facade,
// consolidating what used to be a family of Search* method variants.
// The zero value of every option is the default, so
// Query(ctx, SearchRequest{Query: q}) behaves exactly like the classic
// Search.
type SearchRequest struct {
	// Query is the raw query string; it is parsed with
	// query.ParseQuery (quoted phrases become single keywords).
	// Ignored when Keywords is set.
	Query string
	// Keywords is the pre-parsed query; takes precedence over Query.
	Keywords []query.Keyword
	// K bounds the result list (<= 0 uses the configured default,
	// > query.MaxK clamps).
	K int
	// Offset skips the first Offset ranked results before the K
	// returned ones — paging without a post-hoc slice, so top-k
	// pruning still sees the exact window it must preserve (<= 0 is
	// the first page, > query.MaxOffset clamps).
	Offset int
	// Strategy, when non-empty, asserts the OntoScore strategy the
	// caller expects ("XRANK", "Graph", "Taxonomy", "Relationships").
	// A system is built for exactly one strategy; a mismatch is an
	// error rather than a silent wrong answer.
	Strategy string
	// Explain attaches a text snippet per result (SearchResponse.Snippets).
	Explain bool
	// Trace attaches the span tree of this request's trace to the
	// response. Under a server trace the tree is an in-flight snapshot
	// of the request's root span; otherwise the system starts a local
	// "core.query" trace so standalone callers (CLI, tests) get a tree
	// too.
	Trace bool
}

// Timing is the per-stage latency breakdown of one Query, in integer
// microseconds for a stable wire format.
type Timing struct {
	// ParseUS is the query-string parse time (0 when Keywords was
	// passed pre-parsed).
	ParseUS int64 `json:"parse_us"`
	// SearchUS is the query-phase time: keyword resolution (with any
	// on-demand DIL builds) plus the DIL/RDIL merge.
	SearchUS int64 `json:"search_us"`
	// HydrateUS is the database-access step: resolving Dewey IDs to
	// documents, paths and snippets.
	HydrateUS int64 `json:"hydrate_us"`
	// TotalUS is the end-to-end time (>= 1).
	TotalUS int64 `json:"total_us"`
}

// ShardStatus reports how one shard participated in a scatter-gather
// query (internal/shard). A single-node system never populates these.
type ShardStatus struct {
	// Shard is the shard's index in the cluster.
	Shard int `json:"shard"`
	// Peer names the remote node serving this slot; empty for local
	// shards.
	Peer string `json:"peer,omitempty"`
	// Generation is the shard's serving generation at query time.
	Generation uint64 `json:"generation"`
	// State is "ok", "error", "timeout", or "open" (breaker rejected).
	State string `json:"state"`
	// Error carries the failure detail for non-ok states.
	Error string `json:"error,omitempty"`
	// Results is the number of results the shard contributed.
	Results int `json:"results"`
	// ElapsedUS is the shard-local query latency in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
}

// SearchResponse is everything one Query produces.
type SearchResponse struct {
	// Results are ranked by descending score, resolved against the
	// corpus.
	Results []Result
	// Info reports how the query was answered: Degraded is set only by
	// a federated peer of an older release that scored part of its
	// answer IR-only (internal/shard).
	Info query.Info
	// Timing is the per-stage latency breakdown.
	Timing Timing
	// TraceID identifies the request's trace ("" when no trace was
	// active and none was requested).
	TraceID string
	// Trace is the request's span tree; only set when
	// SearchRequest.Trace was true.
	Trace *obs.SpanTree
	// Snippets holds one text preview per result (parallel to
	// Results); only set when SearchRequest.Explain was true.
	Snippets []string
	// Shards reports per-shard participation when the query was served
	// by a sharded cluster (nil on a single-node system).
	Shards []ShardStatus
	// Partial is true when at least one shard failed to answer and the
	// response was assembled from the shards that did.
	Partial bool
	// Pruning reports what the block-max top-k merge skipped while
	// answering (summed across shards in a cluster). All-zero when the
	// ranked (RDIL) path or an exhaustive escape hatch served the query.
	Pruning query.PruneStats
}

// Query is the sole search entry point of the system: it parses (if
// needed), runs the query phase, and hydrates results against the
// corpus. Every former Search* variant is expressible as a
// SearchRequest. The only possible errors are the context's and a
// Strategy mismatch.
func (s *System) Query(ctx context.Context, req SearchRequest) (*SearchResponse, error) {
	start := time.Now()
	if req.Strategy != "" {
		want, err := ontoscore.ParseStrategy(req.Strategy)
		if err != nil {
			return nil, err
		}
		if want != s.cfg.Strategy {
			return nil, fmt.Errorf("core: system is built for strategy %s, request asked for %s",
				s.cfg.Strategy, want)
		}
	}

	// Standalone tracing: when the caller asked for a trace but no
	// server span is active, root a local trace so the tree exists.
	var localRoot *obs.Span
	if req.Trace && obs.SpanFromContext(ctx) == nil {
		ctx, localRoot = obs.NewTracer(1).StartRoot(ctx, "core.query")
	}

	keywords := req.Keywords
	var parseDur time.Duration
	if len(keywords) == 0 && req.Query != "" {
		pstart := time.Now()
		keywords = query.ParseQuery(req.Query)
		parseDur = time.Since(pstart)
	}

	sstart := time.Now()
	qresp, err := s.engine.Query(ctx, query.Request{Keywords: keywords, K: req.K, Offset: req.Offset})
	searchDur := time.Since(sstart)
	if err != nil {
		localRoot.End()
		return nil, err
	}

	hstart := time.Now()
	_, hsp := obs.StartSpan(ctx, "core.hydrate")
	out := &SearchResponse{Pruning: qresp.Pruning}
	if len(qresp.Results) > 0 {
		out.Results = make([]Result, 0, len(qresp.Results))
	}
	for _, r := range qresp.Results {
		res := s.resolve(keywords, r)
		out.Results = append(out.Results, res)
		if req.Explain {
			out.Snippets = append(out.Snippets, s.Snippet(res))
		}
	}
	hsp.SetAttr("results", len(out.Results))
	hsp.End()
	hydrateDur := time.Since(hstart)

	out.TraceID = obs.TraceID(ctx)
	if req.Trace {
		root := obs.SpanFromContext(ctx).Root()
		if localRoot != nil {
			localRoot.End()
			root = localRoot
		}
		if root != nil {
			t := root.Tree()
			out.Trace = &t
		}
	}
	total := time.Since(start).Microseconds()
	if total < 1 {
		total = 1
	}
	out.Timing = Timing{
		ParseUS:   parseDur.Microseconds(),
		SearchUS:  searchDur.Microseconds(),
		HydrateUS: hydrateDur.Microseconds(),
		TotalUS:   total,
	}
	return out, nil
}
