package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"testing"

	"repro/internal/cda"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/ontology"
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

// figure1Server builds a server over the Figure 1 document.
func figure1Server(t *testing.T) *Server {
	t.Helper()
	ont := ontology.Figure2Fragment()
	corpus := xmltree.NewCorpus()
	fig1, err := cda.GenerateFigure1(ont)
	if err != nil {
		t.Fatal(err)
	}
	corpus.Add(fig1)
	s := New(corpus, ontology.MustCollection(ont), core.DefaultConfig())
	s.SetLogf(t.Logf)
	return s
}

// A panicking handler is answered with a JSON 500 and the server keeps
// serving; http.ErrAbortHandler is passed through untouched.
func TestPanicRecovery(t *testing.T) {
	defer faultinject.DisableAll()
	s := figure1Server(t)
	var logged []string
	s.SetLogf(func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) })

	faultinject.Enable(FPSearch, faultinject.Spec{Mode: faultinject.ModePanic, Count: 1})
	rec := get(t, s, "/search?q=asthma")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rec.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("panic response not a JSON error: %s", rec.Body.String())
	}
	if len(logged) == 0 {
		t.Error("panic not logged")
	}

	// The process — and this very handler — keep working.
	rec = get(t, s, "/search?q=asthma")
	if rec.Code != http.StatusOK {
		t.Fatalf("request after panic answered %d, want 200", rec.Code)
	}

	// Deliberate aborts are not swallowed.
	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler", r)
		}
	}()
	faultinject.Enable(FPSearch, faultinject.Spec{Mode: faultinject.ModePanic, Count: 1})
	defer faultinject.Disable(FPSearch)
	s.mux.HandleFunc("/abort", func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	get(t, s, "/abort")
}

// /healthz stays shallow; /readyz runs the registered dependency
// checks, and a failing one makes the server unready.
func TestReadyz(t *testing.T) {
	s := figure1Server(t)

	rec := get(t, s, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz on a healthy server: %d\n%s", rec.Code, rec.Body.String())
	}
	var resp ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Ready || resp.Degraded {
		t.Fatalf("healthy server: %+v", resp)
	}
	if resp.Checks["corpus"] != "ok" {
		t.Errorf("corpus check = %q", resp.Checks["corpus"])
	}

	// A failing dependency check makes the server unready.
	s.AddReadyCheck("store", func() error { return errors.New("disk on fire") })
	rec = get(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with failing store check: %d, want 503", rec.Code)
	}
	resp = ReadyResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Ready || resp.Checks["store"] != "disk on fire" {
		t.Fatalf("failing check: %+v", resp)
	}

	// /healthz stays 200 throughout: liveness must not restart a process
	// that is merely waiting on a dependency.
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", rec.Code)
	}
}
