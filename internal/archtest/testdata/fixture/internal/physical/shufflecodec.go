package physical

import (
	"repro/internal/rdd"
	"repro/internal/row"
)

// rowShuffleCodec lets shuffle exchanges advertise map output to the
// cluster's shuffle service: reduce tasks running on other workers fetch
// encoded buckets instead of recomputing the map side from lineage.
var rowShuffleCodec = &rdd.Codec[row.Row]{
	Encode: row.EncodeRows,
	Decode: row.DecodeRows,
}
