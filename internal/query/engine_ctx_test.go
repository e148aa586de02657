package query

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dil"
	"repro/internal/ontoscore"
)

// slowBuilder counts builds and can block until released; safe for the
// engine's parallel keyword resolution.
type slowBuilder struct {
	oneElement
	calls atomic.Int64
	gate  chan struct{} // nil = don't block
}

func (b *slowBuilder) CompactKeyword(context.Context, string) *dil.CompactList {
	b.calls.Add(1)
	if b.gate != nil {
		<-b.gate
	}
	return b.list()
}

// Parallel resolution must return the same results as a sequential
// baseline: every keyword's list in its slot, same ranking.
func TestSearchContextMatchesSearch(t *testing.T) {
	e, _ := figure1Setup(t, ontoscore.StrategyGraph)
	queries := []string{
		"asthma medications",
		`"bronchial structure" theophylline`,
		"asthma wheezing theophylline",
	}
	for _, q := range queries {
		kws := ParseQuery(q)
		lists := make([]*dil.CompactList, len(kws))
		for i, kw := range kws {
			r, err := e.list(context.Background(), string(kw), nil)
			if err != nil {
				t.Fatalf("q %q keyword %q: %v", q, kw, err)
			}
			lists[i] = r.list
		}
		plain := RunLists(lists, DefaultParams().Decay, 10)
		ctxed, err := searchReq(context.Background(), e, Request{Keywords: kws, K: 10})
		if err != nil {
			t.Fatalf("q %q: %v", q, err)
		}
		if len(plain) != len(ctxed) {
			t.Fatalf("q %q: %d vs %d results", q, len(plain), len(ctxed))
		}
		for i := range plain {
			if !plain[i].Root.Equal(ctxed[i].Root) || plain[i].Score != ctxed[i].Score {
				t.Fatalf("q %q result %d differs", q, i)
			}
		}
	}
}

func TestSearchContextCanceled(t *testing.T) {
	b := &slowBuilder{}
	e := NewEngine(dil.NewIndex(), b, DefaultParams())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := searchReq(ctx, e, Request{Keywords: ParseQuery("foo bar"), K: 5}); err == nil || res != nil {
		t.Fatalf("canceled search = (%v, %v), want ctx error", res, err)
	}
}

// A deadline expiring mid-resolution abandons the wait, but the build
// completes in the background and the next query hits the cache.
func TestSearchContextDeadlineAbandonsWait(t *testing.T) {
	b := &slowBuilder{gate: make(chan struct{})}
	e := NewEngine(dil.NewIndex(), b, DefaultParams())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := searchReq(ctx, e, Request{Keywords: ParseQuery("foo bar"), K: 5}); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("deadline not honored")
	}
	close(b.gate) // background builds finish and populate the cache
	deadline := time.Now().Add(time.Second)
	for {
		res, err := searchReq(context.Background(), e, Request{Keywords: ParseQuery("foo bar"), K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned builds never landed in the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Concurrent identical queries build each missing keyword exactly once
// (singleflight inside the engine), and the cache serves afterwards.
func TestEngineConcurrentBuildDedup(t *testing.T) {
	b := &slowBuilder{gate: make(chan struct{})}
	e := NewEngine(dil.NewIndex(), b, DefaultParams())
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := searchReq(context.Background(), e, Request{Keywords: ParseQuery("foo bar baz"), K: 5}); err != nil || len(res) == 0 {
				t.Errorf("search = (%v, %v)", res, err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let all queries join the flights
	close(b.gate)
	wg.Wait()
	if c := b.calls.Load(); c != 3 {
		t.Fatalf("builder ran %d times for 3 keywords × %d queries, want 3", c, n)
	}
	m := e.CacheMetrics()
	if m.Entries != 3 {
		t.Fatalf("cache entries = %d, want 3", m.Entries)
	}
}

// The keyword cache is bounded: a scan over many distinct keywords
// cannot grow it past its capacity (the old map grew forever).
func TestEngineKeywordCacheBounded(t *testing.T) {
	b := &slowBuilder{}
	params := DefaultParams()
	params.CacheSize = 16
	e := NewEngine(dil.NewIndex(), b, params)
	for i := 0; i < 200; i++ {
		search(e, ParseQuery(fmt.Sprintf("keyword%03d", i)), 1)
	}
	m := e.CacheMetrics()
	if m.Entries > 16 {
		t.Fatalf("cache grew to %d entries, bound 16", m.Entries)
	}
	if m.Evictions == 0 {
		t.Fatal("no evictions recorded under churn")
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"Asthma  Medications":                  "asthma medications",
		`  Theophylline "Bronchial Structure"`: `theophylline "bronchial structure"`,
		`"A  B"`:                               `"a  b"`,
		"":                                     "",
		"   ":                                  "",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
	// Round trip: parsing the normal form gives the same keywords.
	for in := range cases {
		a := ParseQuery(in)
		b := ParseQuery(Normalize(in))
		if len(a) != len(b) {
			t.Fatalf("round trip length differs for %q", in)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("round trip keyword %d differs for %q: %q vs %q", i, in, a[i], b[i])
			}
		}
	}
}
