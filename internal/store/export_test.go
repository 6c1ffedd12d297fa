package store

// Fixtures shared with the black-box serving tests in package
// store_test.
var (
	RowFixture  = testRow
	FillStore   = fillStore
	FleetCorpus = fleetCorpus
)
