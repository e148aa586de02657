package query

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cda"
	"repro/internal/dil"
	"repro/internal/faultinject"
	"repro/internal/ontology"
	"repro/internal/ontoscore"
	"repro/internal/resilience"
	"repro/internal/xmltree"
)

func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := faultinject.CheckDisabled(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// degradeSetup builds an engine over an empty prebuilt index (every
// keyword resolves through the on-demand builder, i.e. the guarded
// ontology path) with fast-failing retry and a test-controlled clock.
func degradeSetup(t *testing.T, strategy ontoscore.Strategy, clock *fakeClock) *Engine {
	t.Helper()
	ont := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	doc, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(doc)
	b := dil.NewBuilder(corpus, ont, strategy, dil.DefaultParams())
	params := DefaultParams()
	params.Retry = resilience.RetryPolicy{MaxAttempts: 1, Jitter: -1}
	params.Breaker = resilience.BreakerConfig{
		Threshold: 3,
		Window:    time.Minute,
		Cooldown:  10 * time.Second,
		Clock:     clock.now,
	}
	return NewEngine(dil.NewIndex(), b, params)
}

// With the ontology failpoint forced open, search still answers — with
// degraded info set and results identical to a pure-IR (StrategyNone,
// the XRANK baseline) engine over the same corpus.
func TestDegradedMatchesIRBaseline(t *testing.T) {
	defer faultinject.DisableAll()
	clock := newFakeClock()
	e := degradeSetup(t, ontoscore.StrategyRelationships, clock)
	baseline := degradeSetup(t, ontoscore.StrategyNone, clock)
	keywords := ParseQuery("asthma medications")

	// Baseline first, before any fault is armed.
	want, info, err := searchReq(context.Background(), baseline, Request{Keywords: keywords, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if info.Degraded {
		t.Fatal("healthy baseline reported degraded")
	}
	if len(want) == 0 {
		t.Fatal("baseline returned nothing")
	}

	// Sanity: healthy ontology-enabled search is NOT identical to the
	// baseline (the relationships strategy adds ontological matches), so
	// equality below is meaningful.
	healthy, _, err := searchReq(context.Background(), degradeSetup(t, ontoscore.StrategyRelationships, clock),
		Request{Keywords: ParseQuery("theophylline"), K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(healthy) == 0 {
		t.Fatal("relationships strategy found nothing for theophylline")
	}

	faultinject.Enable(dil.FPOntoResolve, faultinject.Spec{})
	defer faultinject.Disable(dil.FPOntoResolve)

	got, info, err := searchReq(context.Background(), e, Request{Keywords: keywords, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Degraded {
		t.Fatal("ontology down but search not flagged degraded")
	}
	if !reflect.DeepEqual(info.DegradedKeywords, []string{"asthma", "medications"}) {
		t.Errorf("DegradedKeywords = %v", info.DegradedKeywords)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("degraded results differ from IR baseline:\ngot  %+v\nwant %+v", got, want)
	}

	// Ranked access degrades identically.
	gotRanked, info, err := searchReq(context.Background(), e, Request{Keywords: keywords, K: 10, Ranked: true})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Degraded {
		t.Fatal("ranked search not flagged degraded")
	}
	if !reflect.DeepEqual(gotRanked, got) {
		t.Errorf("ranked degraded results differ:\ngot  %+v\nwant %+v", gotRanked, got)
	}
}

// The breaker trips after Threshold failures, short-circuits further
// ontology builds while open, and re-closes once the dependency heals
// and the cooldown elapses.
func TestBreakerOpensAndRecloses(t *testing.T) {
	defer faultinject.DisableAll()
	clock := newFakeClock()
	e := degradeSetup(t, ontoscore.StrategyRelationships, clock)
	ctx := context.Background()

	faultinject.Enable(dil.FPOntoResolve, faultinject.Spec{})

	// Threshold is 3; each query retries once (MaxAttempts 1) and records
	// one failure.
	for i := 0; i < 3; i++ {
		_, info, err := searchReq(ctx, e, Request{Keywords: ParseQuery("asthma"), K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !info.Degraded {
			t.Fatalf("query %d not degraded", i)
		}
	}
	if st := e.Breaker().State(); st != resilience.Open {
		t.Fatalf("breaker %v after threshold failures, want open", st)
	}
	hitsAtOpen, _ := faultinject.Counts(dil.FPOntoResolve)

	// Open breaker: the guarded call is not attempted at all.
	if _, info, err := searchReq(ctx, e, Request{Keywords: ParseQuery("medications"), K: 5}); err != nil || !info.Degraded {
		t.Fatalf("open-breaker query: info=%+v err=%v", info, err)
	}
	if n, _ := faultinject.Counts(dil.FPOntoResolve); n != hitsAtOpen {
		t.Fatalf("ontology path attempted while breaker open (%d -> %d hits)", hitsAtOpen, n)
	}
	if e.Breaker().Metrics().Rejected == 0 {
		t.Error("no rejections counted while open")
	}

	// Heal the dependency; before the cooldown the breaker still rejects.
	faultinject.Disable(dil.FPOntoResolve)
	clock.advance(5 * time.Second)
	if _, info, _ := searchReq(ctx, e, Request{Keywords: ParseQuery("theophylline"), K: 5}); !info.Degraded {
		t.Fatal("breaker admitted a call before cooldown elapsed")
	}

	// After the cooldown a probe goes through, succeeds, and re-closes.
	clock.advance(6 * time.Second)
	_, info, err := searchReq(ctx, e, Request{Keywords: ParseQuery("patient"), K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if info.Degraded {
		t.Fatal("healthy probe answered degraded")
	}
	if st := e.Breaker().State(); st != resilience.Closed {
		t.Fatalf("breaker %v after successful probe, want closed", st)
	}

	// Fully recovered: ontology-enriched answers again.
	res, info, err := searchReq(ctx, e, Request{Keywords: ParseQuery("theophylline"), K: 5})
	if err != nil || info.Degraded {
		t.Fatalf("post-recovery: info=%+v err=%v", info, err)
	}
	if len(res) == 0 {
		t.Fatal("post-recovery ontological query found nothing")
	}
}

// Breaker transitions under concurrent queries (exercised with -race):
// a failure storm trips it, healing re-closes it, and results stay
// consistent throughout.
func TestDegradeConcurrent(t *testing.T) {
	defer faultinject.DisableAll()
	clock := newFakeClock()
	e := degradeSetup(t, ontoscore.StrategyRelationships, clock)
	keywords := []string{"asthma", "medications", "theophylline", "patient", "observation"}

	faultinject.Enable(dil.FPOntoResolve, faultinject.Spec{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				kw := keywords[(g+i)%len(keywords)]
				if _, _, err := searchReq(context.Background(), e, Request{Keywords: ParseQuery(kw), K: 5}); err != nil {
					t.Errorf("query %q: %v", kw, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := e.Breaker().State(); st != resilience.Open {
		t.Fatalf("breaker %v after failure storm, want open", st)
	}

	// Heal and let the cooldown pass; concurrent traffic drives it back
	// closed (one probe succeeds, the rest take the degraded path or the
	// re-closed fast path — all must answer).
	faultinject.Disable(dil.FPOntoResolve)
	clock.advance(11 * time.Second)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				kw := keywords[(g+i)%len(keywords)]
				if _, _, err := searchReq(context.Background(), e, Request{Keywords: ParseQuery(kw), K: 5}); err != nil {
					t.Errorf("query %q: %v", kw, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := e.Breaker().State(); st != resilience.Closed {
		t.Fatalf("breaker %v after recovery traffic, want closed", st)
	}
	if _, info, err := searchReq(context.Background(), e, Request{Keywords: ParseQuery("theophylline"), K: 5}); err != nil || info.Degraded {
		t.Fatalf("post-recovery: info=%+v err=%v", info, err)
	}
}

// A degraded list cached under the IR key must not shadow the full
// ontology-enriched list once the dependency recovers.
func TestDegradedCacheNotServedAfterRecovery(t *testing.T) {
	defer faultinject.DisableAll()
	clock := newFakeClock()
	e := degradeSetup(t, ontoscore.StrategyRelationships, clock)
	ctx := context.Background()
	// The phrase never occurs in the document text; only the ontology
	// connects it (to the Asthma code node), so the degraded answer is
	// empty and the recovered one is not — stale-cache shadowing would
	// keep it empty.
	q := ParseQuery(`"bronchial structure"`)

	faultinject.Enable(dil.FPOntoResolve, faultinject.Spec{Count: 1})
	degradedRes, info, err := searchReq(ctx, e, Request{Keywords: q, K: 5})
	if err != nil || !info.Degraded {
		t.Fatalf("first query: info=%+v err=%v", info, err)
	}
	faultinject.Disable(dil.FPOntoResolve)

	fullRes, info, err := searchReq(ctx, e, Request{Keywords: q, K: 5})
	if err != nil || info.Degraded {
		t.Fatalf("second query: info=%+v err=%v", info, err)
	}
	if len(degradedRes) != 0 {
		t.Fatalf("degraded ontology-only query returned %d results", len(degradedRes))
	}
	if len(fullRes) == 0 {
		t.Fatal("recovered query served the stale degraded list")
	}
}
