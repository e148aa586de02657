package shard

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/peer"
	"repro/internal/resilience"
	"repro/internal/xmltree"
)

// newPeerNode stands up one loopback peer node: per-strategy systems
// over a partition view, the shard API handler, an httptest server,
// and a client wired to it.
func newPeerNode(t *testing.T, view *xmltree.Corpus, coll *ontology.Collection, gen uint64, opts peer.Options) *peer.Client {
	t.Helper()
	systems := make(map[string]*core.System, 4)
	for _, st := range ontoscore.Strategies() {
		cfg := core.DefaultConfig()
		cfg.Strategy = st
		systems[st.String()] = core.NewMulti(view, coll, cfg)
	}
	h := peer.NewHandler(peer.HandlerConfig{Source: peer.FixedSource(systems, gen), Logf: t.Logf})
	h.WireGeneration(systems)
	mux := http.NewServeMux()
	h.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	c, err := peer.NewClient(srv.URL, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// newFederation splits the corpus into 1+peers disjoint groups with
// the same stable name hash the in-process cluster partitions by,
// keeps group 0 as the coordinator's local corpus, and serves groups
// 1..peers from loopback peer nodes. It returns the coordinator
// cluster and its local corpus view (for reload tests).
func newFederation(t *testing.T, corpus *xmltree.Corpus, coll *ontology.Collection, peers int, opts peer.Options, cfg Config) (*Cluster, *xmltree.Corpus) {
	t.Helper()
	views := partition(corpus, 1+peers)
	clients := make([]*peer.Client, 0, peers)
	for i := 1; i <= peers; i++ {
		clients = append(clients, newPeerNode(t, views[i], coll, uint64(i), opts))
	}
	cfg.Shards = 1
	cfg.Peers = clients
	cfg.Core = core.DefaultConfig()
	if cfg.Logf == nil {
		cfg.Logf = testLogf(t)
	}
	return New(views[0], testSide(coll), cfg), views[0]
}

// The acceptance bar for federated serving: with zero faults, a
// coordinator plus N loopback HTTP peers answers byte-identically —
// same roots, same scores under exact float equality, same matches,
// same snippets — to both the in-process sharded cluster and the
// single-node system, across every strategy, both merge modes, and
// the whole query set. Exactness across the network holds because the
// statistics exchange and the coordinator-resolved keyword norms make
// every node score under identical global state, and JSON round-trips
// float64 exactly.
func TestFederatedEquivalence(t *testing.T) {
	corpus, coll := testCorpus(t, 12, 9)
	singles := make(map[ontoscore.Strategy]*core.System)
	for _, st := range ontoscore.Strategies() {
		cfg := core.DefaultConfig()
		cfg.Strategy = st
		singles[st] = core.NewMulti(corpus, coll, cfg)
	}
	for _, peers := range []int{2, 4} {
		fed, _ := newFederation(t, corpus, coll, peers, peer.Options{}, Config{})
		inproc := testCluster(t, corpus, coll, Config{Shards: 1 + peers})
		for _, st := range ontoscore.Strategies() {
			for _, q := range testQueries {
				name := fmt.Sprintf("peers=%d/%s/%q", peers, st, q)
				req := core.SearchRequest{Query: q, K: 10, Explain: true}
				want, err := singles[st].Query(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: single-node: %v", name, err)
				}
				got, err := fed.System(st).Query(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: federated: %v", name, err)
				}
				if got.Partial {
					t.Errorf("%s: healthy federation answered partial", name)
				}
				if len(got.Shards) != 1+peers {
					t.Errorf("%s: %d slot statuses, want %d", name, len(got.Shards), 1+peers)
				}
				assertSameResults(t, name, want, got)

				ip, err := inproc.System(st).Query(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: in-process sharded: %v", name, err)
				}
				assertSameResults(t, name+"/vs-inproc", ip, got)
			}
		}
	}
}

// Snippet and Fragment hydration of a peer-owned result routes back
// over the wire to the owning peer and answers identically to the
// single-node system.
func TestFederatedHydrationRouting(t *testing.T) {
	corpus, coll := testCorpus(t, 10, 7)
	fed, _ := newFederation(t, corpus, coll, 2, peer.Options{}, Config{})
	single := core.NewMulti(corpus, coll, core.DefaultConfig())
	st := ontoscore.StrategyRelationships
	resp, err := fed.System(st).Query(context.Background(), core.SearchRequest{Query: "asthma", K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("no results to hydrate")
	}
	remoteHydrated := 0
	for _, r := range resp.Results {
		if fed.ownerOf(r.Root.DocID()) < 0 {
			remoteHydrated++
		}
		if got, want := fed.System(st).Snippet(r), single.Snippet(r); got != want {
			t.Errorf("snippet(%s) = %q, want %q", r.Root, got, want)
		}
		if got, want := fed.System(st).Fragment(r), single.Fragment(r); got != want {
			t.Errorf("fragment(%s) = %q, want %q", r.Root, got, want)
		}
	}
	if remoteHydrated == 0 {
		t.Error("no result was owned by a peer; hydration forwarding untested")
	}
}

// A coordinator reload re-runs the federated statistics exchange, so
// answers stay byte-identical to the single-node system afterwards.
func TestFederatedReloadKeepsExchange(t *testing.T) {
	corpus, coll := testCorpus(t, 10, 11)
	fed, local := newFederation(t, corpus, coll, 2, peer.Options{}, Config{})
	single := core.NewMulti(corpus, coll, core.DefaultConfig())
	st := ontoscore.StrategyRelationships

	for _, res := range fed.Reload(context.Background(), local, nil) {
		if res.Error != "" {
			t.Fatalf("reload shard %d: %s", res.Shard, res.Error)
		}
	}
	for _, q := range []string{"asthma", "asthma medications"} {
		req := core.SearchRequest{Query: q, K: 10, Explain: true}
		want, err := single.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fed.System(st).Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "post-reload/"+q, want, got)
	}
}

// The chaos suite: under every peer.rpc failpoint — injected latency,
// refused exchanges, 5xx answers, torn bodies, and trickled bodies —
// a federated search still answers within its budget, degrades to
// partial with the peer slots reported non-ok, and the failing peers'
// breakers open so the next query sheds them without touching the
// network.
func TestFederatedChaos(t *testing.T) {
	corpus, coll := testCorpus(t, 8, 5)
	cases := []struct {
		name string
		arm  func(t *testing.T)
	}{
		{"latency", func(t *testing.T) {
			faultinject.Enable(peer.FPLatency, faultinject.Spec{Mode: faultinject.ModeLatency, Delay: 2 * time.Second})
		}},
		{"refused", func(t *testing.T) {
			faultinject.Enable(peer.FPRefused, faultinject.Spec{})
		}},
		{"5xx", func(t *testing.T) {
			faultinject.Enable(peer.FP5xx, faultinject.Spec{})
		}},
		{"torn", func(t *testing.T) {
			faultinject.Enable(peer.FPTorn, faultinject.Spec{})
		}},
		{"slowbody", func(t *testing.T) {
			t.Cleanup(peer.SetSlowBodyProfile(8, 30*time.Millisecond))
			faultinject.Enable(peer.FPSlowBody, faultinject.Spec{})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := peer.Options{
				Timeout: 250 * time.Millisecond,
				Breaker: resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour},
				Retry:   resilience.RetryPolicy{MaxAttempts: 1, Jitter: -1},
			}
			// Build (and run the exchange) before arming the failpoint.
			fed, _ := newFederation(t, corpus, coll, 2, opts, Config{Timeout: 300 * time.Millisecond})
			tc.arm(t)
			t.Cleanup(faultinject.DisableAll)

			start := time.Now()
			resp, err := fed.System(ontoscore.StrategyRelationships).Query(context.Background(),
				core.SearchRequest{Query: "asthma", K: 5})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("federated query failed outright (local shard should answer): %v", err)
			}
			if !resp.Partial {
				t.Error("query with every peer failing did not degrade to partial")
			}
			if elapsed > 2*time.Second {
				t.Errorf("degraded query took %v; the deadline was not enforced", elapsed)
			}
			for _, ss := range resp.Shards {
				if ss.Peer == "" && ss.State != "ok" {
					t.Errorf("local shard %d answered %s: %s", ss.Shard, ss.State, ss.Error)
				}
				if ss.Peer != "" && ss.State == "ok" {
					t.Errorf("peer slot %d answered ok under %s", ss.Shard, tc.name)
				}
			}
			for _, pc := range fed.Peers() {
				if pc.Breaker().State() != resilience.Open {
					t.Errorf("peer %s breaker state = %v, want open", pc.Name(), pc.Breaker().State())
				}
			}
			// With the breakers open the next query answers instantly:
			// every peer leg is rejected locally as "open".
			start = time.Now()
			resp, err = fed.System(ontoscore.StrategyRelationships).Query(context.Background(),
				core.SearchRequest{Query: "asthma", K: 5})
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("breaker-shed query took %v", elapsed)
			}
			open := 0
			for _, ss := range resp.Shards {
				if ss.State == "open" {
					open++
				}
			}
			if open != 2 {
				t.Errorf("%d slots reported open, want 2", open)
			}
		})
	}
}

// Readiness and statuses see through to the peers: a federation
// reports every slot, names the peers, counts their documents from
// the exchanged snapshot, and loses quorum when the peers' breakers
// open.
func TestFederatedStatuses(t *testing.T) {
	corpus, coll := testCorpus(t, 8, 13)
	opts := peer.Options{
		Breaker: resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		Retry:   resilience.RetryPolicy{MaxAttempts: 1, Jitter: -1},
	}
	fed, local := newFederation(t, corpus, coll, 2, opts, Config{})
	sts := fed.Statuses()
	if len(sts) != 3 {
		t.Fatalf("%d statuses, want 3", len(sts))
	}
	remoteDocs := 0
	for _, st := range sts {
		if st.Shard >= 1 {
			if st.Peer == "" {
				t.Errorf("slot %d has no peer name", st.Shard)
			}
			remoteDocs += st.Documents
		} else if st.Peer != "" {
			t.Errorf("local slot %d carries peer name %q", st.Shard, st.Peer)
		}
		if !st.Ready {
			t.Errorf("slot %d not ready at startup", st.Shard)
		}
	}
	if want := corpus.Len() - local.Len(); remoteDocs != want {
		t.Errorf("peers report %d documents, want %d", remoteDocs, want)
	}
	if got, want := fed.Documents(), corpus.Len(); got != want {
		t.Errorf("Documents() = %d, want %d", got, want)
	}
	if ready, quorum, ok := fed.Ready(); !ok || ready != 3 || quorum != 2 {
		t.Errorf("Ready() = %d/%d ok=%v, want 3/2 true", ready, quorum, ok)
	}

	// Trip both peer breakers: quorum (majority of 3 = 2) is lost.
	for _, pc := range fed.Peers() {
		pc.Breaker().Failure()
	}
	if ready, _, ok := fed.Ready(); ok || ready != 1 {
		t.Errorf("Ready() after peer failures = %d ok=%v, want 1 false", ready, ok)
	}
}

// Live delta segments are a single-process feature: installing one on
// a federated cluster is refused (logged and ignored) instead of
// dereferencing a remote slot's nil generation.
func TestFederatedRejectsDelta(t *testing.T) {
	corpus, coll := testCorpus(t, 6, 3)
	fed, _ := newFederation(t, corpus, coll, 2, peer.Options{}, Config{})
	fed.InstallDelta(nil, nil) // must not panic and must not install
	if fed.delta != nil {
		t.Fatal("delta overlay installed on a federated cluster")
	}
}
