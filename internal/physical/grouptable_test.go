package physical

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/row"
	"repro/internal/types"
)

// keyShape is one kind of grouping key the group table serves: the key types,
// which of them arrive as native (typed-lane) vectors, the comparison the
// table should pick, and a generator of column c's value for domain point d.
type keyShape struct {
	name   string
	types  []types.DataType
	native []bool
	cmp    keyCmp
	value  func(c int, d int64, rng *rand.Rand) any
}

var (
	dec92    = types.DecimalType{Precision: 9, Scale: 2}
	floatSet = []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001), 1.5, -1.5, math.Inf(1)}
)

func intVal(_ int, d int64, _ *rand.Rand) any  { return int32(d) }
func longVal(_ int, d int64, _ *rand.Rand) any { return d << 20 }
func strVal(_ int, d int64, _ *rand.Rand) any  { return fmt.Sprintf("key-%d", d) }

var keyShapes = []keyShape{
	{"int", []types.DataType{types.Int}, nil, cmpI64, intVal},
	{"bigint", []types.DataType{types.Long}, nil, cmpI64, longVal},
	{"date", []types.DataType{types.Date}, nil, cmpI64, intVal},
	{"string", []types.DataType{types.String}, nil, cmpStr, strVal},
	{"int-int", []types.DataType{types.Int, types.Int}, nil, cmpPair,
		func(c int, d int64, _ *rand.Rand) any { return int32(d >> (3 * c) % 37) }},
	{"double", []types.DataType{types.Double}, nil, cmpGeneric,
		func(_ int, d int64, _ *rand.Rand) any {
			if d%3 == 0 {
				return floatSet[int(d/3)%len(floatSet)]
			}
			return float64(d) / 4
		}},
	{"decimal", []types.DataType{dec92}, nil, cmpGeneric,
		func(_ int, d int64, _ *rand.Rand) any { return types.NewDecimal(d*7, 2) }},
	// A BIGINT key off the boxed scalar fallback: the same value arrives as
	// int32 or int64, and must land in one group.
	{"boxed-int-vs-bigint", []types.DataType{types.Long}, []bool{false}, cmpGeneric,
		func(_ int, d int64, rng *rand.Rand) any {
			if rng.Intn(2) == 0 {
				return int32(d)
			}
			return d
		}},
	{"boxed-string", []types.DataType{types.String}, []bool{false}, cmpGeneric, strVal},
	{"string-int-double", []types.DataType{types.String, types.Int, types.Double}, nil, cmpGeneric,
		func(c int, d int64, rng *rand.Rand) any {
			switch c {
			case 0:
				return strVal(0, d%11, rng)
			case 1:
				return int32(d % 7)
			}
			return floatSet[int(d)%len(floatSet)]
		}},
}

// batch generates n positions of the shape's key vectors over `domain`
// distinct points per column, with NULLs in every column, now and then a
// constant column (NULL included), and a sparse ascending selection.
func (s keyShape) batch(rng *rand.Rand, n int, domain int64) ([]*columnar.Vector, []int32) {
	vecs := make([]*columnar.Vector, len(s.types))
	for c, t := range s.types {
		newVec := expr.NewClassVector
		if s.native != nil && !s.native[c] {
			newVec = columnar.NewAnyVector
		}
		vecs[c] = newVec(t, n)
		konst, held := rng.Intn(8) == 0, s.value(c, rng.Int63n(domain), rng)
		if rng.Intn(3) == 0 {
			held = nil
		}
		if konst && s.native == nil { // a boxed kernel never yields a constant vector
			vecs[c] = columnar.NewConstVector(t, held, n)
			continue
		}
		for i := 0; i < n; i++ {
			switch {
			case konst:
				vecs[c].Set(i, held)
			case rng.Intn(10) == 0:
				vecs[c].SetNull(i)
			default:
				vecs[c].Set(i, s.value(c, rng.Int63n(domain), rng))
			}
		}
	}
	var live []int32
	keep := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		if rng.Intn(4) < keep {
			live = append(live, int32(i))
		}
	}
	return vecs, live
}

// refGroups is the reference the table is held to: a Go map over the
// injective GroupKey encoding of the boxed key values.
type refGroups struct {
	m    map[string]int32
	keys []string // first-seen order
	ords []int
}

func newRefGroups(n int) *refGroups { return &refGroups{m: map[string]int32{}, ords: ordinalsUpTo(n)} }

func keyAt(vecs []*columnar.Vector, i int, ords []int) string {
	kv := make(row.Row, len(vecs))
	for j, v := range vecs {
		kv[j] = v.Get(i)
	}
	return row.GroupKey(kv, ords)
}

func (r *refGroups) index(vecs []*columnar.Vector, live []int32, insert bool) []int32 {
	out := make([]int32, 0, len(live))
	for _, i := range live {
		k := keyAt(vecs, int(i), r.ords)
		g, ok := r.m[k]
		if !ok {
			if g = -1; insert {
				g = int32(len(r.keys))
				r.m[k], r.keys = g, append(r.keys, k)
			}
		}
		out = append(out, g)
	}
	return out
}

// TestGroupTableDifferential runs seeded random batches of every key shape
// through the group table and the reference: the same group index for every
// row, the same keys in the same first-seen order, the same count — through
// at least four growths of the slot array — and lookups that find exactly the
// keys inserted, from 8 goroutines at once (the shared join table's use).
func TestGroupTableDifferential(t *testing.T) {
	for _, shape := range keyShapes {
		for _, hint := range []int{0, 100} {
			t.Run(fmt.Sprintf("%s/hint=%d", shape.name, hint), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(26 + hint)))
				table := newGroupTable(shape.types, shape.native, hint)
				if table.cmp != shape.cmp {
					t.Fatalf("table compares as %s, want %s", table.cmp, shape.cmp)
				}
				ref := newRefGroups(len(shape.types))
				var probe groupProbe
				for b := 0; b < 60; b++ {
					vecs, live := shape.batch(rng, 1+rng.Intn(300), 1+int64(b)*40)
					got := table.indexBatch(vecs, live, &probe, true)
					want := ref.index(vecs, live, true)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("batch %d: group indexes differ\n got %v\nwant %v", b, got, want)
					}
				}
				if table.count() != len(ref.keys) {
					t.Fatalf("count %d, reference has %d groups", table.count(), len(ref.keys))
				}
				if hint == 0 && table.grows < 4 {
					t.Fatalf("only %d growths over %d groups: the test must cross at least four", table.grows, table.count())
				}
				for g := range table.count() {
					if k := keyAt(table.cols, g, ref.ords); k != ref.keys[g] {
						t.Fatalf("group %d holds key %q, first seen was %q", g, k, ref.keys[g])
					}
				}
				// Every stored hash is the exchange's: NewHasher folded with HashAt.
				for g := range table.count() {
					h := row.NewHasher()
					for _, kc := range table.cols {
						h = kc.HashAt(h, g)
					}
					if table.hashes[g] != h.Sum() {
						t.Fatalf("group %d: stored hash %x, HashAt gives %x", g, table.hashes[g], h.Sum())
					}
				}

				// Lookups: present keys index as inserted, absent ones as -1,
				// and nothing is written.
				type lookup struct {
					vecs []*columnar.Vector
					live []int32
					want []int32
				}
				lookups := make([]lookup, 8)
				for i := range lookups {
					vecs, live := shape.batch(rng, 200, 5000) // a domain mostly never inserted
					lookups[i] = lookup{vecs, live, ref.index(vecs, live, false)}
				}
				var wg sync.WaitGroup
				for _, l := range lookups {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var probe groupProbe
						for rep := 0; rep < 3; rep++ {
							if got := table.indexBatch(l.vecs, l.live, &probe, false); fmt.Sprint(got) != fmt.Sprint(l.want) {
								t.Errorf("lookup differs\n got %v\nwant %v", got, l.want)
							}
						}
					}()
				}
				wg.Wait()
				if table.count() != len(ref.keys) {
					t.Fatalf("lookups inserted: count %d, want %d", table.count(), len(ref.keys))
				}
			})
		}
	}
}

// TestSplitGroupsFollowsKeyHash: a phase-1 table flushes each group to the
// reducer HashAt % numPart names — the exchange's partitioning before the
// table stored its hashes, so no output order moves — in ascending group
// order within a block, and a reducer probing with the blocks' hashes finds
// the same groups as one that hashes their keys.
func TestSplitGroupsFollowsKeyHash(t *testing.T) {
	for _, shape := range keyShapes {
		rng := rand.New(rand.NewSource(7))
		table := newGroupTable(shape.types, shape.native, 0)
		var probe groupProbe
		for b := 0; b < 20; b++ {
			vecs, live := shape.batch(rng, 200, 400)
			table.indexBatch(vecs, live, &probe, true)
		}
		for _, numPart := range []int{1, 2, 3, 8} {
			blocks := splitGroups(table.cols, table.hashes, nil, numPart)
			seen := 0
			for r, b := range blocks {
				byHash := newGroupTable(shape.types, nil, len(b.sel))
				byKey := newGroupTable(shape.types, nil, len(b.sel))
				got := byHash.indexHashed(b.keys, b.hashes, b.sel, nil, true)
				want := byKey.indexBatch(b.keys, b.sel, &probe, true)
				if fmt.Sprint(got) != fmt.Sprint(want) || byHash.grows+byKey.grows != 0 {
					t.Fatalf("%s: reducer %d of %d: probing with stored hashes gives %v (grows %d), hashing keys %v", shape.name, r, numPart, got, byHash.grows, want)
				}
				for k, g := range b.sel {
					h := row.NewHasher()
					for _, kc := range b.keys {
						h = kc.HashAt(h, int(g))
					}
					if int(h.Sum()%uint64(numPart)) != r {
						t.Fatalf("%s: group %d went to reducer %d of %d, its key hashes to %d", shape.name, g, r, numPart, h.Sum()%uint64(numPart))
					}
					if k > 0 && b.sel[k-1] >= g {
						t.Fatalf("%s: reducer %d's selection is not ascending: %v", shape.name, r, b.sel)
					}
				}
				seen += len(b.sel)
			}
			if seen != table.count() {
				t.Fatalf("%s: %d reducers received %d of %d groups", shape.name, numPart, seen, table.count())
			}
		}
	}
}

// meanProbe is the mean distance of a table's groups from their home slots.
func meanProbe(t *groupTable) float64 {
	at := make([]int, t.count())
	for s, e := range t.slots {
		if e != 0 {
			at[uint32(e)-1] = s
		}
	}
	total := 0
	for g, h := range t.hashes {
		total += (at[g] - int(h>>t.shift)) & (len(t.slots) - 1)
	}
	return float64(total) / float64(t.count())
}

// TestReducerProbeLength: a reducer only ever sees hashes that agree modulo
// numPart — in their low bits when numPart is a power of two. Indexing slots
// by the high bits keeps its probe runs as short as those of a table fed
// unconstrained hashes.
func TestReducerProbeLength(t *testing.T) {
	const groups = 20000
	keys := columnar.NewVector(types.Long, 16*groups)
	for i := range keys.I64 {
		keys.I64[i] = int64(i)
	}
	vecs := []*columnar.Vector{keys}
	var probe groupProbe
	free := newGroupTable([]types.DataType{types.Long}, nil, 0)
	free.indexBatch(vecs, identitySel(groups), &probe, true)
	base := meanProbe(free)
	for _, numPart := range []int{2, 4, 8} {
		// The keys one reducer of numPart receives.
		var live []int32
		for i := 0; len(live) < groups; i++ {
			if row.NewHasher().Int64(int64(i)).Sum()%uint64(numPart) == 1 {
				live = append(live, int32(i))
			}
		}
		reducer := newGroupTable([]types.DataType{types.Long}, nil, 0)
		reducer.indexBatch(vecs, live, &probe, true)
		if got := meanProbe(reducer); reducer.count() != groups || got > 2*base+0.1 {
			t.Fatalf("numPart %d: %d groups, mean probe length %.3f against %.3f unconstrained", numPart, reducer.count(), got, base)
		}
	}
}

// mapOutput is one map task's partial block for the LONG keys [from, to):
// each key's group folds the inputs (key, key % 5, key / 4, "s<key % 97>").
func mapOutput(newLanes func() []expr.VecAggregator, from, to int) aggBlock {
	n := to - from
	cols := []*columnar.Vector{columnar.NewVector(types.Long, n), columnar.NewVector(types.Long, n),
		columnar.NewVector(types.Double, n), columnar.NewVector(types.String, n)}
	for i := range n {
		k := int64(from + i)
		cols[0].I64[i], cols[1].I64[i], cols[2].F64[i], cols[3].Str[i] = k, k%5, float64(k)/4, fmt.Sprint("s", k%97)
	}
	groups, lanes, sel := newGroupTable([]types.DataType{types.Long}, nil, 0), newLanes(), identitySel(n)
	var probe groupProbe
	gidx := groups.indexBatch(cols[:1], sel, &probe, true)
	for _, l := range lanes {
		l.Update(&expr.VecBatch{Cols: cols, N: n}, sel, gidx, groups.count())
	}
	return splitGroups(groups.cols, groups.hashes, lanes, 1)[0]
}

// A reducer is sized once, from its blocks' group counts: merging them grows
// neither its group table nor any typed state lane. Every block after the
// first (which sizes the merge's group-index scratch) allocates the same
// number of times — the per-block views of its partial lanes — where a lane
// that doubled from empty would reallocate at the second, third and fifth of
// eight equal blocks; and each result column is exactly as long as the
// reducer's groups.
func TestReducerLanesSizedOnce(t *testing.T) {
	long := &expr.BoundReference{Ordinal: 1, Type: types.Long}
	dbl := &expr.BoundReference{Ordinal: 2, Type: types.Double}
	str := &expr.BoundReference{Ordinal: 3, Type: types.String}
	fns := []expr.AggregateFunc{expr.NewCountStar(), &expr.Sum{Child: long}, &expr.Sum{Child: dbl}, &expr.Avg{Child: long},
		expr.NewMin(str), &expr.MinMax{Child: dbl, IsMax: true}, expr.NewMin(long)}
	newLanes := func() []expr.VecAggregator {
		lanes := make([]expr.VecAggregator, len(fns))
		for i, fn := range fns {
			lanes[i], _ = expr.NewVecAggregator(fn)
		}
		return lanes
	}
	keyTypes := []types.DataType{types.Long}
	const groups, numBlocks = 8192, 8
	var blocks []aggBlock
	for b := range numBlocks {
		blocks = append(blocks, mapOutput(newLanes, b*groups/numBlocks, (b+1)*groups/numBlocks))
	}
	// A collection starting inside a measured merge allocates for itself.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perBlock := make([]uint64, numBlocks)
	for trial := range 3 {
		m := newAggMerge(execCtx(true), keyTypes, fns, newLanes, groups)
		var before, after runtime.MemStats
		for k, b := range blocks {
			runtime.ReadMemStats(&before)
			if err := m.merge(b); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; trial == 0 || n < perBlock[k] {
				perBlock[k] = n
			}
		}
		cols, n, err := m.finish()
		if err != nil {
			t.Fatal(err)
		}
		if n != groups || m.grows != 0 {
			t.Fatalf("the reducer holds %d of %d groups, its table grew %d times", n, groups, m.grows)
		}
		for j, c := range cols {
			if c.Len() != n {
				t.Fatalf("result column %d holds %d rows, the reducer %d groups", j, c.Len(), n)
			}
		}
		if got := cols[2].I64[groups-1]; got != int64(groups-1)%5 {
			t.Fatalf("sum over the last group is %d", got)
		}
	}
	for k := 2; k < numBlocks; k++ {
		if perBlock[k] != perBlock[1] {
			t.Fatalf("allocations merging each block: %v — a state lane grew as the reducer merged", perBlock)
		}
	}
}

func shapeNamed(name string) keyShape {
	for _, s := range keyShapes {
		if s.name == name {
			return s
		}
	}
	panic("no key shape " + name)
}

// heldBytes is what a table holds beyond its strings' bytes: slots, hashes
// and key lanes.
func heldBytes(t *groupTable) int {
	n := 8 * (len(t.slots) + cap(t.hashes))
	for _, c := range t.cols {
		n += 8*cap(c.I64) + 8*cap(c.F64) + 16*cap(c.Str) + 16*cap(c.Any)
	}
	return n
}

// BenchmarkGroupTable measures the table alone: 2^17 rows of each key
// comparison indexed into 10, 10^3 and 10^5 groups, inserting into a fresh
// table every iteration (insert-heavy at 10^5: most rows add a group) or only
// looking up in a built one. ns/row is the per-row cost, B/group what a built
// table holds per group.
func BenchmarkGroupTable(b *testing.B) {
	const rows, batch = 1 << 17, 4096
	for _, named := range [][2]string{{"i64", "bigint"}, {"str", "string"}, {"pair", "int-int"}, {"boxed", "boxed-string"}} {
		name, shape := named[0], shapeNamed(named[1])
		for _, groups := range []int64{10, 1000, 100000} {
			rng := rand.New(rand.NewSource(1))
			var batches [][]*columnar.Vector
			for off := 0; off < rows; off += batch {
				vecs := make([]*columnar.Vector, len(shape.types))
				for c, t := range shape.types {
					if vecs[c] = expr.NewClassVector(t, batch); shape.native != nil {
						vecs[c] = columnar.NewAnyVector(t, batch)
					}
				}
				for i := 0; i < batch; i++ {
					d := rng.Int63n(groups)
					if name == "pair" { // `groups` distinct pairs
						vecs[0].Set(i, int32(d/317))
						vecs[1].Set(i, int32(d%317))
					} else {
						vecs[0].Set(i, shape.value(0, d, rng))
					}
				}
				batches = append(batches, vecs)
			}
			live := identitySel(batch)
			index := func(t *groupTable, p *groupProbe, insert bool) {
				for _, vecs := range batches {
					t.indexBatch(vecs, live, p, insert)
				}
			}
			for _, mode := range []string{"insert", "lookup"} {
				b.Run(fmt.Sprintf("%s/groups=%d/%s", name, groups, mode), func(b *testing.B) {
					var probe groupProbe
					built := newGroupTable(shape.types, shape.native, 0)
					index(built, &probe, true)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if mode == "insert" {
							built = newGroupTable(shape.types, shape.native, 0)
						}
						index(built, &probe, mode == "insert")
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
					b.ReportMetric(float64(heldBytes(built))/float64(built.count()), "B/group")
				})
			}
		}
	}
}
