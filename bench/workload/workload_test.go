package workload

import (
	"bytes"
	"context"
	"strings"
	"testing"

	xontorank "repro"
)

var small = Size{Docs: 30, Concepts: 300}

// render flattens everything a seed generates into one byte string.
func render(t *testing.T, seed int64) []byte {
	t.Helper()
	d, err := Generate(seed, small)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, reqs := range [][]Request{d.HotWarm(), d.Hot(500), d.MergeWarm(), d.Merge(500), d.Cold(), d.IngestReads(500)} {
		for _, rq := range reqs {
			b.WriteString(rq.URI())
			b.WriteByte('\n')
		}
		b.WriteString("--\n")
	}
	ops, err := d.Writes(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		b.WriteString(op.Name + " " + op.Token + "\n")
		b.Write(op.Body)
	}
	return b.Bytes()
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b, c := render(t, 7), render(t, 7), render(t, 8)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different streams")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds generated the same streams")
	}
}

func TestStreamPrefixIsStable(t *testing.T) {
	// The answer check and golden.json look at the first requests of a
	// stream whatever length the run asked for.
	d, err := Generate(7, small)
	if err != nil {
		t.Fatal(err)
	}
	for name, gen := range map[string]func(int) []Request{"hot": d.Hot, "merge": d.Merge, "ingest": d.IngestReads} {
		short, long := gen(50), gen(400)
		for i := range short {
			if short[i] != long[i] {
				t.Fatalf("%s: request %d depends on the stream length", name, i)
			}
		}
	}
}

func TestHotPoolShape(t *testing.T) {
	d, err := Generate(7, small)
	if err != nil {
		t.Fatal(err)
	}
	pool := d.HotWarm()
	if len(pool) != HotPool {
		t.Fatalf("pool has %d queries, want %d", len(pool), HotPool)
	}
	in := map[Request]bool{}
	for _, rq := range pool {
		if n := len(strings.Fields(rq.Query)); n < 1 || n > 3 || rq.K != 10 {
			t.Fatalf("pool query %+v is not 1-3 keywords at k=10", rq)
		}
		in[rq] = true
	}
	if len(in) != HotPool {
		t.Fatalf("pool has %d distinct queries, want %d", len(in), HotPool)
	}
	for _, rq := range d.Hot(2000) {
		if !in[rq] {
			t.Fatalf("stream request %+v is not in the pool", rq)
		}
	}
}

func TestMergeQueriesFindSomething(t *testing.T) {
	d, err := Generate(7, small)
	if err != nil {
		t.Fatal(err)
	}
	sys := xontorank.New(d.Corpus, d.Ont, xontorank.DefaultConfig())
	reqs := d.Merge(200)
	found := 0
	for _, rq := range reqs {
		if n := len(strings.Fields(rq.Query)); n < 2 || n > 3 {
			t.Fatalf("merge query %q has %d keywords", rq.Query, n)
		}
		resp, err := sys.Query(context.Background(), xontorank.SearchRequest{Query: rq.Query, K: rq.K})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) > 0 {
			found++
		}
	}
	if found*10 < len(reqs)*9 {
		t.Fatalf("only %d of %d merge queries returned a result", found, len(reqs))
	}
}

func TestColdSweepCoversEveryTokenAndStrategy(t *testing.T) {
	d, err := Generate(7, small)
	if err != nil {
		t.Fatal(err)
	}
	sweep := d.Cold()
	if len(sweep) != len(d.Tokens)*len(Strategies) {
		t.Fatalf("sweep has %d requests, want %d tokens x %d strategies", len(sweep), len(d.Tokens), len(Strategies))
	}
	seen := map[Request]bool{}
	for _, rq := range sweep {
		if seen[rq] {
			t.Fatalf("%+v is swept twice: it would hit a cache", rq)
		}
		seen[rq] = true
	}
}

func TestWritesCycle(t *testing.T) {
	d, err := Generate(7, small)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := d.Writes(20)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	tokens := map[string]bool{}
	for i, op := range ops {
		switch {
		case op.Delete:
			if i%5 != 4 || !live[op.Name] {
				t.Fatalf("op %d deletes %s, which is not a surviving earlier add", i, op.Name)
			}
			delete(live, op.Name)
			continue
		case i%5 == 2:
			if d.Corpus.DocByName(op.Name) == nil {
				t.Fatalf("op %d should replace a base document, names %s", i, op.Name)
			}
		default:
			live[op.Name] = true
		}
		if tokens[op.Token] || !bytes.Contains(op.Body, []byte(op.Token)) {
			t.Fatalf("op %d: token %s is reused or missing from the body", i, op.Token)
		}
		tokens[op.Token] = true
		if _, err := xontorank.ParseXML(bytes.NewReader(op.Body)); err != nil {
			t.Fatalf("op %d body does not parse: %v", i, err)
		}
	}
}
