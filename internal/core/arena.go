package core

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/dil"
	"repro/internal/xmltree"
)

// Memory-mapped arena integration: a System can persist its built
// index as one arena file (WriteArena) and later serve straight off a
// mapped file (UseArena) — postings stream zero-copy from the page
// cache, nothing is decoded into heap at load, and cold start costs a
// superblock parse instead of a full index decode.

// CorpusFingerprint is the corpus identity stamped into arena
// superblocks (re-exported so callers outside core need not touch
// xmltree directly).
func CorpusFingerprint(c *xmltree.Corpus) uint64 { return c.Fingerprint() }

// ConfigFingerprint hashes everything that determines the stored
// posting scores: the strategy, the index-creation parameters, and the
// prebuilt vocabulary bound. An arena whose ConfigFP differs was built
// under different scoring rules and must not be served.
func (s *System) ConfigFingerprint() uint64 {
	desc := fmt.Sprintf("%s|alpha=%v|onto=%+v|text=%+v|hops=%d",
		s.cfg.Strategy, s.cfg.DIL.Alpha, s.cfg.DIL.Onto, s.cfg.DIL.Text, s.cfg.VocabularyHops)
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(desc); i++ {
		h ^= uint64(desc[i])
		h *= prime64
	}
	return h
}

// ArenaMeta assembles the superblock identity for an arena written by
// this system: generation counter, this system's corpus view, and the
// cluster-wide corpus fingerprint (pass the local fingerprint when
// single-node — shard views score against global statistics, so the
// global identity is part of what makes stored scores valid).
func (s *System) ArenaMeta(generation, globalFP uint64) arena.Meta {
	return arena.Meta{
		Generation: generation,
		CorpusFP:   s.corpus.Fingerprint(),
		GlobalFP:   globalFP,
		ConfigFP:   s.ConfigFingerprint(),
		Keys:       uint64(s.builder.IDs().Len()),
	}
}

// WriteArena materializes the system's in-memory index (BuildIndex
// must have run) as one arena file at path, atomically.
func (s *System) WriteArena(path string, generation, globalFP uint64) error {
	if len(s.index.Keywords()) == 0 {
		return fmt.Errorf("core: WriteArena before BuildIndex (empty index)")
	}
	return arena.Write(path, s.index, s.ArenaMeta(generation, globalFP))
}

// ArenaCompatible reports whether a can serve this system: format
// already validated by Open; here the corpus, global-statistics, and
// configuration fingerprints must all match.
func (s *System) ArenaCompatible(a *arena.Arena, globalFP uint64) error {
	h := a.Header()
	if got, want := h.CorpusFP, s.corpus.Fingerprint(); got != want {
		return fmt.Errorf("core: arena corpus fingerprint %#x, corpus has %#x (stale arena?)", got, want)
	}
	if h.GlobalFP != globalFP {
		return fmt.Errorf("core: arena global fingerprint %#x, cluster has %#x", h.GlobalFP, globalFP)
	}
	if got, want := h.ConfigFP, s.ConfigFingerprint(); got != want {
		return fmt.Errorf("core: arena config fingerprint %#x, system has %#x", got, want)
	}
	return nil
}

// UseArena repoints the system's query engine at a mapped arena: the
// prebuilt heap index is dropped (freeing its memory) and postings
// serve zero-copy from the mapping. The caller keeps ownership of the
// arena's reference and must hold it for the system's serving
// lifetime. Keywords the arena lacks still resolve through the
// builder, and RDIL decodes the lists it reads per query.
func (s *System) UseArena(a *arena.Arena) {
	s.index = dil.NewIndex()
	s.engine.SetSource(a)
}
