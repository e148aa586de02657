package ir

// Stats is a snapshot of the collection statistics BM25-family scoring
// depends on: the document count, the total token length (their ratio
// is the average document length), and per-term document frequencies.
//
// Stats exist so a horizontally partitioned corpus can score exactly
// like a single-node one (internal/shard): each partition computes its
// LocalStats, the coordinator merges them with MergeStats — every field
// is additive because a document lives in exactly one partition — and
// the merged snapshot is broadcast back via SetGlobalStats. This is the
// classic distributed-IR global-IDF exchange; without it, a rare term
// concentrated on one shard would look common there and rare elsewhere,
// and per-shard scores would drift from the single-node reference.
type Stats struct {
	// N is the number of indexed documents.
	N int
	// TotalLen is the summed token length of all documents.
	TotalLen int64
	// DF maps each term to the number of documents containing it.
	DF map[string]int
}

// LocalStats snapshots this index's own collection statistics. The DF
// map is a copy; mutating it does not affect the index.
func (ix *Index) LocalStats() Stats {
	s := Stats{
		N:        len(ix.docLen),
		TotalLen: ix.totalLen,
		DF:       make(map[string]int, len(ix.postings)),
	}
	for t, list := range ix.postings {
		s.DF[t] = len(list)
	}
	return s
}

// MergeStats combines per-partition statistics into collection-global
// ones. All fields are additive under disjoint document partitions.
func MergeStats(parts ...Stats) Stats {
	out := Stats{DF: make(map[string]int)}
	for _, p := range parts {
		out.N += p.N
		out.TotalLen += p.TotalLen
		for t, df := range p.DF {
			out.DF[t] += df
		}
	}
	return out
}

// StatsView is a read-only view of collection-global statistics. A
// plain Stats snapshot implements it; a live deployment can instead
// install a layered view (base snapshot plus a delta-segment
// adjustment, see internal/delta) whose answers change as documents
// are ingested or tombstoned. Implementations must be safe for
// concurrent use — the scoring hot path calls them without locks.
type StatsView interface {
	// StatsN is the collection-global document count.
	StatsN() int
	// StatsTotalLen is the collection-global summed token length.
	StatsTotalLen() int64
	// StatsDF is the collection-global document frequency of a term.
	StatsDF(term string) int
}

// StatsN implements StatsView.
func (s Stats) StatsN() int { return s.N }

// StatsTotalLen implements StatsView.
func (s Stats) StatsTotalLen() int64 { return s.TotalLen }

// StatsDF implements StatsView.
func (s Stats) StatsDF(term string) int { return s.DF[term] }

// SetGlobalStats overlays collection-global statistics on this index:
// N, DF, and AvgDocLen answer from the overlay, while per-document
// facts (TF, DocLen, postings) stay local. Pass a zero-N Stats to
// remove the overlay. Not synchronized with concurrent readers — set
// it while the index is being built, before it serves queries.
func (ix *Index) SetGlobalStats(s Stats) {
	if s.N == 0 {
		ix.global = nil
		return
	}
	ix.global = s
}

// SetGlobalStatsView installs an arbitrary statistics view (nil
// removes it). Like SetGlobalStats this assignment itself is off-line
// only, but the installed view may answer from live data.
func (ix *Index) SetGlobalStatsView(v StatsView) { ix.global = v }

// GlobalStatsView reports the installed overlay, snapshot or live view
// (nil when none).
func (ix *Index) GlobalStatsView() StatsView { return ix.global }
