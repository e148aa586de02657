package arena

import (
	"fmt"

	"repro/internal/dil"
)

// KeywordStat is one keyword's verified segment, reported by Verify.
type KeywordStat struct {
	Keyword  string
	Postings int
	Blocks   int
	Bytes    int // segment length including the CRC trailer
}

// VerifyReport summarizes a full-file verification pass.
type VerifyReport struct {
	Path          string
	Header        Header
	Keywords      int
	TotalPostings uint64
	TotalBlocks   int
	TotalBytes    int64
}

// Verify opens path, validates superblock + offset table, then walks
// every segment: CRC and full structural validation, keys bounded by
// the superblock's element count (no stage is needed to check a file).
// each (optional) receives one KeywordStat per verified keyword, in
// sorted order. The first corrupt segment fails the pass with the
// offending keyword in the error.
func Verify(path string, each func(KeywordStat)) (*VerifyReport, error) {
	a, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	rep := &VerifyReport{Path: path, Header: a.Header(), Keywords: a.Len()}
	for i := 0; i < a.Len(); i++ {
		name, _, segLen := a.entryAt(i)
		body, err := a.segment(i)
		var postings, blocks int
		if err == nil {
			postings, blocks, err = dil.ValidateSegment(body, int(min(a.hdr.Keys, 1<<31)))
		}
		if err != nil {
			return nil, fmt.Errorf("arena: keyword %q: %w", name, err)
		}
		st := KeywordStat{
			Keyword:  string(name),
			Postings: postings,
			Blocks:   blocks,
			Bytes:    int(segLen),
		}
		if each != nil {
			each(st)
		}
		rep.TotalPostings += uint64(postings)
		rep.TotalBlocks += blocks
		rep.TotalBytes += int64(segLen)
	}
	if rep.TotalPostings != a.Postings() {
		return nil, fmt.Errorf("arena: %s: segments hold %d postings, superblock records %d",
			path, rep.TotalPostings, a.Postings())
	}
	return rep, nil
}
