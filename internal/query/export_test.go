package query

// Test-only exports for the external query_test package, whose tests
// import packages (experiments, core) that themselves import query.
var (
	RunDIL       = runDIL
	RankTruncate = rankTruncate
	Page         = page
	ResultsEqual = resultsEqual
	EntriesOf    = entriesOf
)

type Entry = entry
