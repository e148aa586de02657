// Package trace is the benchmark's own span recorder. The harness
// wraps the public call into each layer in a span; spans stay in memory
// and are written out when the run ends. Nothing here is compiled into
// the server: the traced run is a separate, in-process replay, and
// end-to-end numbers never come from it.
package trace

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call. Start and End are nanoseconds since the
// recorder was created. Parent is the ID of the span that caused this
// one (0 = none); spans of one request share Req. A derived span was
// not timed by the harness: its duration was reported by the layer
// itself (core.Timing in a /search body) and it is laid out inside its
// parent only so self time can be computed.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder collects spans from one goroutine. A nil or disabled
// recorder records nothing, which is how the replay measures its own
// overhead.
type Recorder struct {
	t0    time.Time
	spans []Span
	off   bool
}

// New returns an enabled recorder.
func New() *Recorder { return &Recorder{t0: time.Now()} }

// Enable switches recording on or off.
func (r *Recorder) Enable(on bool) { r.off = !on }

// Start opens a span and returns its ID (0 when recording is off).
func (r *Recorder) Start(name string, parent, req int) int {
	if r == nil || r.off {
		return 0
	}
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

// End closes a span and returns its duration.
func (r *Recorder) End(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.t0))
	return s.Dur()
}

// Derive adds child spans with reported durations, laid end to end
// from the parent's start.
func (r *Recorder) Derive(parent int, names []string, durs []time.Duration) {
	if r == nil || parent == 0 {
		return
	}
	p := r.spans[parent-1]
	at := p.Start
	for i, name := range names {
		r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Req: p.Req, Name: name,
			Start: at, End: at + int64(durs[i]), Derived: true})
		at += int64(durs[i])
	}
}

// Spans returns everything recorded so far.
func (r *Recorder) Spans() []Span { return r.spans }

// SelfTimes returns, per span ID, the span's duration minus the part
// of its interval that its direct children cover (overlapping children
// are counted once).
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// File is the on-disk trace.
type File struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []Span `json:"spans"`
}

// Write stores the trace as JSON.
func Write(path string, f File) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
