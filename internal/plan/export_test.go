package plan

// FlatSizeWalks exposes the row-walk counter to the external tests.
var FlatSizeWalks = &flatSizeWalks
