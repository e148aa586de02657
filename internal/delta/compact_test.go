package delta

import (
	"context"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dil"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/ontoscore"
)

// materializeFixture builds a source directory holding the base
// documents, a segment with a mixed delta over them, and a WAL holding
// the script — the exact state a compaction starts from.
type materializeFixture struct {
	fx     *fixture
	dir    string
	seg    *Segment
	wal    *WAL
	script []scriptOp
}

func newMaterializeFixture(t *testing.T) *materializeFixture {
	t.Helper()
	fx := newFixture(t, 9, 7)
	const baseN = 6
	dir := t.TempDir()
	for _, name := range fx.names[:baseN] {
		if err := os.WriteFile(filepath.Join(dir, name+".xml"), fx.bodies[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base := fx.baseCorpus(t, baseN)
	seg := NewSegment(base, ir.Stats{}, ontoscore.NewSide(fx.coll, dil.DefaultParams().Onto), Config{DIL: dil.DefaultParams()})
	wal, err := OpenWAL(filepath.Join(t.TempDir(), "delta.wal"), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() })
	script := differentialScript(fx)
	for _, o := range script {
		op, err := wal.Append(o.kind, o.name, fx.bodies[o.body])
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	return &materializeFixture{fx: fx, dir: dir, seg: seg, wal: wal, script: script}
}

// dirSnapshot hashes every .xml file in a directory.
func dirSnapshot(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	out := map[string][32]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".xml" {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = sha256.Sum256(buf)
	}
	return out
}

func sameSnapshot(a, b map[string][32]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestMaterialize verifies the source directory after an uninterrupted
// compaction holds exactly the live document set: surviving base
// files, delta documents (adds and replacements), and no tombstoned
// files.
func TestMaterialize(t *testing.T) {
	m := newMaterializeFixture(t)
	if err := m.seg.Materialize(m.dir); err != nil {
		t.Fatal(err)
	}
	if err := TruncateWAL(m.wal); err != nil {
		t.Fatal(err)
	}
	if got := m.wal.Count(); got != 0 {
		t.Fatalf("wal records after compaction: %d", got)
	}
	live, _ := trackScript(m.fx, 6, m.script)
	snap := dirSnapshot(t, m.dir)
	if len(snap) != len(live) {
		t.Fatalf("directory holds %d files, want %d live documents", len(snap), len(live))
	}
	for name, src := range live {
		want := sha256.Sum256(m.fx.bodies[src])
		got, ok := snap[name+".xml"]
		if !ok {
			t.Fatalf("missing %s.xml", name)
		}
		if got != want {
			t.Fatalf("%s.xml content diverges from live body %q", name, src)
		}
	}
}

// TestCompactionCrashSoak kills the compaction at every failpoint site
// (temp write, rename, unlink, directory sync, WAL truncation) and
// verifies the two recovery guarantees: the WAL keeps its records when
// the kill landed before truncation, and a retry converges to exactly
// the uninterrupted result.
func TestCompactionCrashSoak(t *testing.T) {
	t.Cleanup(faultinject.DisableAll)

	// Reference: the uninterrupted run.
	ref := newMaterializeFixture(t)
	if err := ref.seg.Materialize(ref.dir); err != nil {
		t.Fatal(err)
	}
	if err := TruncateWAL(ref.wal); err != nil {
		t.Fatal(err)
	}
	want := dirSnapshot(t, ref.dir)

	kills := 0
	for k := 0; ; k++ {
		m := newMaterializeFixture(t)
		// A previous crash may also have left a stray temp file behind.
		if err := os.WriteFile(filepath.Join(m.dir, ".delta-stale.tmp"), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		faultinject.Enable(FPCompact, faultinject.Spec{After: int64(k), Count: 1})
		err := m.seg.Materialize(m.dir)
		if err == nil {
			err = TruncateWAL(m.wal)
		}
		faultinject.DisableAll()
		if err == nil {
			// k is past the last failpoint site: the soak covered them all.
			if kills == 0 {
				t.Fatal("no kill sites enumerated")
			}
			t.Logf("soaked %d kill sites", kills)
			break
		}
		kills++
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("kill %d: unexpected error: %v", k, err)
		}
		// Crashed before the WAL truncated: every op must still be there.
		if got := m.wal.Count(); got != len(m.script) {
			t.Fatalf("kill %d: wal lost records before truncation: %d/%d", k, got, len(m.script))
		}
		// The retry (next compaction cycle) must converge.
		if err := m.seg.Materialize(m.dir); err != nil {
			t.Fatalf("kill %d: retry: %v", k, err)
		}
		if err := TruncateWAL(m.wal); err != nil {
			t.Fatalf("kill %d: retry truncate: %v", k, err)
		}
		if got := dirSnapshot(t, m.dir); !sameSnapshot(got, want) {
			t.Fatalf("kill %d: retried compaction diverges from uninterrupted run", k)
		}
		if got := m.wal.Count(); got != 0 {
			t.Fatalf("kill %d: wal records after retry: %d", k, got)
		}
	}
}

// TestCompactorLoop drives the background loop: threshold kicks, the
// failure path (old generation keeps serving, cycle retried), and
// success bookkeeping.
func TestCompactorLoop(t *testing.T) {
	var runs atomic.Int32
	fail := atomic.Bool{}
	fail.Store(true)
	ran := make(chan struct{}, 16)
	pendingDocs := atomic.Int32{}
	pendingDocs.Store(5)
	c := NewCompactor(CompactorConfig{
		MaxDocs: 3,
		Run: func(context.Context) error {
			runs.Add(1)
			ran <- struct{}{}
			if fail.Load() {
				return errors.New("injected reload failure")
			}
			pendingDocs.Store(0)
			return nil
		},
		Pending: func() (int, int, int) { return int(pendingDocs.Load()), 0, 0 },
		Logf:    t.Logf,
	})
	c.Start()
	defer c.Stop()

	c.MaybeKick() // 5 docs >= MaxDocs 3
	waitRan(t, ran)
	waitDone(t, func() bool { _, f := c.Runs(); return f == 1 })
	if r, f := c.Runs(); r != 1 || f != 1 {
		t.Fatalf("after failed cycle: runs=%d failures=%d", r, f)
	}
	if !c.LastSuccess().IsZero() {
		t.Fatal("failed cycle recorded a success")
	}

	fail.Store(false)
	c.Kick()
	waitRan(t, ran)
	waitDone(t, func() bool { return !c.LastSuccess().IsZero() })
	if r, f := c.Runs(); r != 2 || f != 1 {
		t.Fatalf("after successful cycle: runs=%d failures=%d", r, f)
	}
	if c.LastSuccess().IsZero() {
		t.Fatal("successful cycle did not record")
	}

	// Below threshold: MaybeKick stays quiet.
	c.MaybeKick()
	select {
	case <-ran:
		t.Fatal("MaybeKick fired below threshold")
	case <-time.After(50 * time.Millisecond):
	}
}

// waitDone waits for the compactor to record the cycle waitRan saw
// start: Run signals ran before it returns, and the cycle's failure
// count or success time is recorded after. A cycle that never records
// leaves the assertions that follow to fail.
func waitDone(t *testing.T, recorded func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !recorded() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

func waitRan(t *testing.T, ran chan struct{}) {
	t.Helper()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("compactor cycle did not run")
	}
}
