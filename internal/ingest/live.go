package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/xmltree"
)

// Live single-document ingestion (POST /admin/ingest) reuses the
// directory pipeline's validation and quarantine semantics: the same
// guarded parse and CDA checks, and the same quarantine artifacts
// (quarantined body, reason file, manifest entry) for rejects — a bad
// live upload is triaged exactly like a bad file in the source feed.

// WithDefaults resolves the config's derived paths and zero-valued
// limits, exactly as Run does internally.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// ValidateBytes validates one in-memory document body through the
// pipeline's stages, returning the parsed document, or the failed
// stage name ("parse" or "validate") and the cause.
func ValidateBytes(cfg Config, buf []byte) (*xmltree.Document, string, error) {
	cfg = cfg.withDefaults()
	doc, perr := xmltree.ParseLimited(bytes.NewReader(buf), cfg.Limits)
	return validate(cfg, doc, perr)
}

// QuarantineBytes records a rejected live-ingest body: the body is
// written into the quarantine directory under the given file name,
// a machine-readable reason file lands beside it, and the rejection is
// checkpointed in the manifest. Only environmental failures are
// returned.
func QuarantineBytes(cfg Config, name string, buf []byte, stage string, cause error) error {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.QuarantineDir, 0o755); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	sum := sha256.Sum256(buf)
	hash := hex.EncodeToString(sum[:])
	man, err := OpenManifest(cfg.ManifestPath)
	if err != nil {
		return err
	}
	defer man.Close()
	reason := fmt.Sprintf("%s: %v", stage, cause)
	if err := man.Append(Entry{Name: name, Hash: hash, Bytes: int64(len(buf)), Status: StatusQuarantined, Reason: reason}); err != nil {
		return err
	}
	dst := filepath.Join(cfg.QuarantineDir, name)
	if err := os.WriteFile(dst, buf, 0o644); err != nil {
		return fmt.Errorf("ingest: quarantining %s: %w", name, err)
	}
	return writeReason(cfg, name, hash, stage, cause)
}
