package server

import (
	"fmt"
	"os"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/ontoscore"
)

// Memory-mapped serving. EnableArena points every generation's systems
// at single-file index arenas (internal/arena): postings stream
// zero-copy from the page cache, cold start costs a superblock parse
// instead of a full index decode, and the corpus can exceed RAM — the
// kernel pages hot posting blocks in and out on demand.
//
// Lifecycle: arenas attach to a generation before it serves and are
// unmapped when it drains (internal/gen). A reload or compaction
// brings a new corpus fingerprint, so stale files are refused and —
// with Rebuild on — rewritten for the incoming generation. Every
// failure degrades to heap serving for that strategy, never an error.

// ArenaConfig configures memory-mapped index serving.
type ArenaConfig struct {
	// Dir is the directory holding one <Strategy>.xarn file per
	// strategy. Required.
	Dir string
	// Rebuild makes a missing or incompatible arena get rebuilt from
	// the generation's corpus (BuildIndex + atomic write + map). Off,
	// only pre-built compatible files are attached.
	Rebuild bool
}

// EnableArena turns on memory-mapped index serving for the active
// generation and every generation a reload or compaction produces.
// Stray temp files from crashed writes are removed first. Call once,
// before serving traffic.
func (s *Server) EnableArena(cfg ArenaConfig) error {
	if cfg.Dir == "" {
		return fmt.Errorf("arena: Dir is required")
	}
	if s.acfg.Dir != "" {
		return fmt.Errorf("arena: already enabled")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("arena: %w", err)
	}
	for _, stray := range arena.CleanupStray(cfg.Dir) {
		s.logf("server: arena: removed stray temp file %s (crashed write)", stray)
	}
	s.acfg = cfg
	s.attachArenas(s.gen.Load())
	s.reg.GaugeFunc("xontorank_arena_mapped_bytes",
		"Bytes of index arena currently memory-mapped by the active generation.",
		func() float64 {
			total := 0
			for _, a := range s.gen.Load().Arenas() {
				total += a.MappedBytes()
			}
			return float64(total)
		})
	s.reg.GaugeFunc("xontorank_arena_mapped_files",
		"Index arena files mapped by the active generation.",
		func() float64 { return float64(len(s.gen.Load().Arenas())) })
	return nil
}

// ArenaStatus is one mapped arena's state for logs and tests (the
// file name carries the strategy).
type ArenaStatus struct {
	Path     string `json:"path"`
	Mapped   bool   `json:"mapped"`
	Bytes    int    `json:"bytes"`
	Keywords int    `json:"keywords"`
}

// ArenaStatuses reports the active generation's mapped arenas (empty
// without EnableArena, or when every attach fell back to heap).
func (s *Server) ArenaStatuses() []ArenaStatus {
	g := s.gen.Pin()
	defer s.gen.Release(g)
	out := make([]ArenaStatus, 0, len(g.Arenas()))
	for _, a := range g.Arenas() {
		out = append(out, ArenaStatus{
			Path:   a.Path(),
			Mapped: a.Mapped(),
			Bytes:  a.MappedBytes(),
			// Keywords is stable after Open even once unmapped.
			Keywords: a.Len(),
		})
	}
	return out
}

// attachArenas attaches one arena per strategy to a generation that is
// not serving yet (gen.Snapshot.AttachArena: open, fingerprint-check,
// rebuild with Rebuild on). Failures log and fall back to heap
// serving — a bad file must never take search down.
func (s *Server) attachArenas(g *generation) {
	if s.acfg.Dir == "" {
		return
	}
	globalFP := core.CorpusFingerprint(g.corpus)
	for _, st := range ontoscore.Strategies() {
		path := arena.FileFor(s.acfg.Dir, st.String())
		a, stale, err := g.AttachArena(g.systems[st], path, globalFP, s.acfg.Rebuild)
		if stale != nil {
			s.logf("server: arena %s: %v; rebuilding", path, stale)
		}
		if err != nil {
			s.logf("server: arena %s unavailable, serving %s from heap: %v", path, st, err)
			continue
		}
		s.logf("server: arena %s mapped for %s: %d keywords, %d postings, %d bytes",
			path, st, a.Len(), a.Postings(), a.MappedBytes())
	}
}
