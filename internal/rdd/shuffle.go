package rdd

import (
	"context"
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Wide (shuffle) dependencies. A shuffle's map side is a Stage — every parent
// partition's records bucketed by hash of key, once — that an action runs
// before any reduce task, which then serves its partition from the buckets:
// the two-stage structure of Spark's shuffle. Map-side task failures are
// retried by the map tasks' own runTask loops; a terminal map-stage failure
// fails the action as the map stage's JobError.

// Pair is a key-value record for the byKey operations.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// hashKey spreads comparable keys across reducers: integer and string keys
// hash directly, everything else hashes its formatted representation with
// FNV-1a so exotic key types still spread instead of collapsing onto one
// reducer.
func hashKey[K comparable](k K, buckets int) int {
	switch v := any(k).(type) {
	case int:
		return int(uint64(v) % uint64(buckets))
	case int32:
		return int(uint64(uint32(v)) % uint64(buckets))
	case int64:
		return int(uint64(v) % uint64(buckets))
	case uint64:
		return int(v % uint64(buckets))
	case string:
		return int(fnvHash(v) % uint64(buckets))
	default:
		return int(fnvHash(fmt.Sprintf("%v", v)) % uint64(buckets))
	}
}

// fnvHash is FNV-1a over the bytes of s.
func fnvHash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// bucketize runs the shuffle map side on the stage runner: each map partition
// is bucketed into per-partition local buckets, which are then concatenated
// per bucket in partition order, so output order is identical to a
// sequential pass, and the buckets lie side by side in one slice. A panicking
// bucket function fails the stage with an error (fail-fast, like computeAll).
func bucketize[T any](jc context.Context, ctx *Context, parts [][]T, numPartitions int, bucket func(T) int) ([][]T, error) {
	locals := make([][][]T, len(parts))
	_, err := ctx.runStage(jc, len(parts), func(_ context.Context, pi int) (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("rdd: panic in shuffle map side: %v", rec)
			}
		}()
		local := make([][]T, numPartitions)
		for _, v := range parts[pi] {
			b := bucket(v)
			local[b] = append(local[b], v)
		}
		locals[pi] = local
		return nil
	})
	if err != nil {
		return nil, err
	}

	n := 0
	for _, p := range parts {
		n += len(p)
	}
	all, buckets := make([]T, 0, n), make([][]T, numPartitions)
	for b := range buckets {
		from := len(all)
		for _, local := range locals {
			all = append(all, local[b]...)
		}
		buckets[b] = all[from:] // a view to the end of all: a range of buckets is one slice
	}
	return buckets, nil
}

// objectSized is implemented by record types that can report an
// approximate in-memory size (row.Row and a physical aggregate's partial
// blocks do); shuffle byte accounting samples it rather than sizing every
// record.
type objectSized interface{ ObjectSize() int64 }

// sampledSize estimates the bytes of one bucket by sizing up to 32 of its
// records and extrapolating linearly; it returns 0 when the record type cannot
// report sizes.
func sampledSize[T any](bucket []T) int64 {
	if _, ok := any((*T)(nil)).(objectSized); !ok || len(bucket) == 0 {
		return 0
	}
	k := min(len(bucket), 32)
	var s int64
	for i := range bucket[:k] {
		s += any(&bucket[i]).(objectSized).ObjectSize() // a pointer: boxing it allocates nothing
	}
	return s * int64(len(bucket)) / int64(k)
}

// MapStats is what a shuffle's map side wrote, bucket by bucket: the records
// it counts (shuffle.records) and their sampled bytes. An adaptive planner
// reads it to size the reduce side without running or copying anything again.
type MapStats struct {
	Records, Bytes []int64
}

// Total sums the buckets.
func (m MapStats) Total() (records, bytes int64) {
	for b := range m.Records {
		records, bytes = records+m.Records[b], bytes+m.Bytes[b]
	}
	return records, bytes
}

// shuffleOut is a shuffle's map-side value: the buckets and their stats.
type shuffleOut[T any] struct {
	buckets [][]T
	stats   MapStats
}

// mapSide is a shuffle's map side as its reduce side reads it: the stage, and
// bucket b fetched from a peer that published it or read off the stage.
type mapSide[T any] struct {
	stage   *Stage[*shuffleOut[T]]
	buckets int
	bucket  func(jc context.Context, b int) ([]T, error)
	remote  bool // buckets may come from peers: a range is read bucket by bucket
}

// MapStats runs the map side of the shuffle whose buckets r serves, once per
// RDD graph (a later action reads the same stage without running it again),
// and returns what it wrote per bucket; ok is false when r serves no
// shuffle's buckets.
func (r *RDD[T]) MapStats(jc context.Context) (stats MapStats, ok bool, err error) {
	if r.shuffle == nil {
		return stats, false, nil
	}
	out, err := r.shuffle.stage.Value(jc)
	if err != nil {
		return stats, true, err
	}
	return out.stats, true, nil
}

// Regroup is the reduce side of the shuffle whose buckets r serves, read by
// reducers tasks (1 ≤ reducers ≤ buckets): task q reads the contiguous bucket
// range [q·buckets/reducers, (q+1)·buckets/reducers) in bucket order, so the
// tasks concatenate to the same sequence for every reducer count. It reads the
// same map side as r, so a map side that ran for r does not run again. Any
// other r is coalesced.
func Regroup[T any](r *RDD[T], reducers int) *RDD[T] {
	if r.shuffle == nil {
		return Coalesce(r, reducers)
	}
	if reducers == r.numPart {
		return r
	}
	return r.shuffle.read(r.ctx, r.name, reducers)
}

// read is the shuffle's reduce side as reducers tasks, each its range of
// buckets concatenated.
func (m *mapSide[T]) read(ctx *Context, name string, reducers int) *RDD[T] {
	r := newRDD(ctx, name, reducers, func(jc context.Context, q int) ([]T, error) {
		lo, hi := q*m.buckets/reducers, (q+1)*m.buckets/reducers
		if hi-lo == 1 {
			return m.bucket(jc, lo)
		}
		if m.remote {
			var out []T
			for b := lo; b < hi; b++ {
				part, err := m.bucket(jc, b)
				if err != nil {
					return nil, err
				}
				out = append(out, part...)
			}
			return out, nil
		}
		out, err := m.stage.Value(jc)
		if err != nil {
			return nil, err
		}
		n := 0
		for _, b := range out.buckets[lo:hi] {
			n += len(b)
		}
		return clip(out.buckets[lo], n), nil // the range's buckets lie side by side
	}).Reads(m.stage)
	r.shuffle = m
	return r
}

// clip is the first n records of a bucket view, capped so that an append
// copies rather than writes over the next bucket; nil when there are none.
func clip[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	return s[:n:n]
}

// bucketRange is partitions lo..hi-1 of r, read in the calling task: a
// shuffle's buckets straight off its map side (r serving one partition a
// bucket), any other RDD's partitions as tasks of their own.
func (r *RDD[T]) bucketRange(jc context.Context, lo, hi int) ([][]T, error) {
	out := make([][]T, 0, hi-lo)
	for p := lo; p < hi; p++ {
		read := r.partition
		if r.shuffle != nil && r.numPart == r.shuffle.buckets {
			read = r.shuffle.bucket
		}
		part, err := read(jc, p)
		if err != nil {
			return nil, err
		}
		out = append(out, part)
	}
	return out, nil
}

// Codec encodes and decodes record slices for cross-worker transport.
// Shuffles constructed with a codec publish their map-side buckets to the
// context's ShuffleService (when one is installed) and try fetching
// buckets from peer workers before recomputing them locally.
type Codec[T any] struct {
	Encode func([]T) ([]byte, error)
	Decode func([]byte) ([]T, error)
}

// shuffledPrepCodec is shuffled with a late-bound bucket function and optional
// cross-worker bucket exchange: prep sees the fully materialized map-side
// partitions (in partition order) and returns the bucket function — the hook
// range partitioning uses to sample key boundaries from the actual data
// before bucketing, Spark's RangePartitioner two-pass shape collapsed onto
// one materialization.
func shuffledPrepCodec[T any](parent *RDD[T], name string, numPartitions int, prep func(parts [][]T) func(T) int, codec *Codec[T]) *RDD[T] {
	return shuffledScatter(parent, name, numPartitions, numPartitions, func(jc context.Context, parts [][]T) ([][]T, []int64, error) {
		buckets, err := bucketize(jc, parent.ctx, parts, numPartitions, prep(parts))
		records := make([]int64, len(buckets))
		for b, bucket := range buckets {
			records[b] = int64(len(bucket))
		}
		return buckets, records, err
	}, codec)
}

// ExchangePresplit is the exchange for map output that is already split into
// buckets: every parent partition holds a multiple of buckets records — one
// bucket set per chunk of its output, record i bound for bucket i % buckets.
// There is no per-record bucketing left to do. Reduce partition q of the
// reducers (1 ≤ reducers ≤ buckets) receives the contiguous bucket range
// [q·buckets/reducers, (q+1)·buckets/reducers), bucket-major, then map
// partitions in order, then each partition's chunks in order: the exchange
// appends the records straight into one slice in that order and cuts the
// reduce partitions out of it. So the reduce partitions concatenate to the
// same sequence for every reducer count, and with one chunk per partition and
// reducers = buckets the exchange is a plain transpose. records reports how
// many logical shuffle records one element carries (what shuffle.records and
// the shuffle span count); elements carrying none are dropped.
func ExchangePresplit[T any](r *RDD[T], buckets, reducers int, records func(T) int64) *RDD[T] {
	if reducers < 1 || reducers > buckets {
		return GenerateCtx(r.ctx, r.name+".exchange", 1, func(context.Context, int) ([]T, error) {
			return nil, fmt.Errorf("rdd: %d reducers for %d pre-split buckets", reducers, buckets)
		})
	}
	return shuffledScatter(r, r.name+".exchange", buckets, reducers, func(_ context.Context, parts [][]T) ([][]T, []int64, error) {
		kept := 0
		for pi, part := range parts {
			if len(part)%buckets != 0 {
				return nil, nil, fmt.Errorf("rdd: pre-split map partition %d holds %d records for %d buckets", pi, len(part), buckets)
			}
			for _, v := range part {
				if records(v) > 0 {
					kept++
				}
			}
		}
		// One slice in bucket order, each bucket cut out of it.
		all, out, counts := make([]T, 0, kept), make([][]T, buckets), make([]int64, buckets)
		for b := range out {
			from := len(all)
			for _, part := range parts {
				for i := b; i < len(part); i += buckets {
					if n := records(part[i]); n > 0 {
						all = append(all, part[i])
						counts[b] += n
					}
				}
			}
			out[b] = all[from:] // a view to the end of all: a range of buckets is one slice
		}
		return out, counts, nil
	}, nil)
}

// shuffledScatter builds the reduce-side RDD over the map stage; scatter
// turns the map partitions into numPartitions buckets and reports the records
// it moved into each, and reducers tasks read contiguous ranges of them
// (Regroup). The map stage samples each bucket's bytes (MapStats). With a codec and an installed ShuffleService, the map
// stage publishes its buckets (best effort) for peers working other partitions
// of the same query, and a reduce task first tries to fetch its bucket from a
// peer that already ran this shuffle's map side; a miss (nobody ran it, the
// owner died, the block was evicted, the bytes do not decode) falls back to
// the map stage — exactly the lineage-recompute story, so a lost shuffle
// output costs recompute time, never correctness.
func shuffledScatter[T any](parent *RDD[T], name string, numPartitions, reducers int, scatter func(jc context.Context, parts [][]T) ([][]T, []int64, error), codec *Codec[T]) *RDD[T] {
	shuffleID := ""
	var svc ShuffleService
	if codec != nil {
		if svc = parent.ctx.shuffleService(); svc != nil {
			shuffleID = parent.ctx.nextShuffleID()
		}
	}
	stage := NewStage(parent, func(jc context.Context, parts [][]T) (*shuffleOut[T], error) {
		start := time.Now()
		buckets, records, err := scatter(jc, parts)
		out := &shuffleOut[T]{buckets: buckets, stats: MapStats{Records: records, Bytes: make([]int64, len(buckets))}}
		for b, bucket := range buckets {
			out.stats.Bytes[b] = sampledSize(bucket)
		}
		total, bytes := out.stats.Total()
		if err == nil {
			parent.ctx.shuffleRecords.Add(total)
		}
		if parent.ctx.Trace() != nil || traceSink(jc) != nil {
			span := metrics.Span{
				Kind:    metrics.SpanShuffle,
				Name:    name,
				Start:   metrics.Since(start),
				DurNS:   time.Since(start).Nanoseconds(),
				Bytes:   bytes,
				Records: total,
			}
			span.Job, _ = jobIDFrom(jc)
			parent.ctx.shuffleBytes.Add(span.Bytes)
			if err != nil {
				span.Err = err.Error()
			}
			parent.ctx.emitSpan(jc, span)
		}
		if err == nil && shuffleID != "" {
			enc := make([][]byte, len(buckets))
			for i, b := range buckets {
				if enc[i], err = codec.Encode(b); err != nil {
					return out, nil // unencodable records: peers recompute instead
				}
			}
			svc.Publish(jc, shuffleID, enc)
		}
		return out, err
	})
	side := &mapSide[T]{stage: stage, buckets: numPartitions, remote: shuffleID != "", bucket: func(jc context.Context, b int) ([]T, error) {
		if shuffleID != "" {
			if data, ok, ferr := svc.FetchBucket(jc, shuffleID, b); ferr == nil && ok {
				if vals, derr := codec.Decode(data); derr == nil {
					return vals, nil
				}
			}
		}
		out, err := stage.Value(jc)
		if err != nil {
			return nil, err
		}
		return clip(out.buckets[b], len(out.buckets[b])), nil
	}}
	return side.read(parent.ctx, name, reducers)
}

// PartitionByKey hash-partitions a pair RDD into numPartitions partitions
// (a wide dependency). Records with equal keys land in the same output
// partition.
func PartitionByKey[K comparable, V any](r *RDD[Pair[K, V]], numPartitions int) *RDD[Pair[K, V]] {
	if numPartitions < 1 {
		numPartitions = r.ctx.parallelism
	}
	bucket := func(kv Pair[K, V]) int { return hashKey(kv.Key, numPartitions) }
	return shuffledPrepCodec(r, r.name+".shuffle", numPartitions, func([][]Pair[K, V]) func(Pair[K, V]) int { return bucket }, nil)
}

// ReduceByKey merges values per key with f, combining map-side first
// (Spark's combiner) so the shuffle moves one record per key per partition.
func ReduceByKey[K comparable, V any](r *RDD[Pair[K, V]], f func(V, V) V, numPartitions int) *RDD[Pair[K, V]] {
	combine := func(_ int, in []Pair[K, V]) []Pair[K, V] {
		m := make(map[K]V, len(in))
		for _, kv := range in {
			if cur, ok := m[kv.Key]; ok {
				m[kv.Key] = f(cur, kv.Value)
			} else {
				m[kv.Key] = kv.Value
			}
		}
		out := make([]Pair[K, V], 0, len(m))
		for k, v := range m {
			out = append(out, Pair[K, V]{Key: k, Value: v})
		}
		return out
	}
	return MapPartitions(PartitionByKey(MapPartitions(r, combine), numPartitions), combine)
}

// GroupByKey gathers all values per key (no combiner — the expensive
// operation Spark documentation warns about; provided for completeness).
func GroupByKey[K comparable, V any](r *RDD[Pair[K, V]], numPartitions int) *RDD[Pair[K, []V]] {
	shuffledKV := PartitionByKey(r, numPartitions)
	return MapPartitions(shuffledKV, func(_ int, in []Pair[K, V]) []Pair[K, []V] {
		m := make(map[K][]V, len(in))
		for _, kv := range in {
			m[kv.Key] = append(m[kv.Key], kv.Value)
		}
		out := make([]Pair[K, []V], 0, len(m))
		for k, vs := range m {
			out = append(out, Pair[K, []V]{Key: k, Value: vs})
		}
		return out
	})
}

// PartitionByHashCodec hash-partitions arbitrary records by a
// caller-supplied hash — the physical layer's row exchanges use this with
// row hashes — with cross-worker bucket exchange for codec-capable record
// types (the physical layer passes the block codec so workers fetch each
// other's map outputs instead of recomputing the map side per reduce
// partition; a nil codec keeps the exchange process-local).
func PartitionByHashCodec[T any](r *RDD[T], numPartitions int, hash func(T) uint64, codec *Codec[T]) *RDD[T] {
	if numPartitions < 1 {
		numPartitions = r.ctx.parallelism
	}
	return shuffledPrepCodec(r, r.name+".exchange", numPartitions, func([][]T) func(T) int {
		return func(v T) int {
			return int(hash(v) % uint64(numPartitions))
		}
	}, codec)
}

// PartitionByFuncCodec partitions records by a bucket function derived from
// the map side: prep receives every parent partition (in order) and returns
// the bucket assignment. The physical layer's range exchange uses it to
// sample sort-key boundaries before bucketing, so a global sort parallelizes
// instead of coalescing onto one partition. Bucket values are clamped into
// [0, numPartitions). The codec enables cross-worker bucket exchange (see
// PartitionByHashCodec).
func PartitionByFuncCodec[T any](r *RDD[T], numPartitions int, prep func(parts [][]T) func(T) int, codec *Codec[T]) *RDD[T] {
	if numPartitions < 1 {
		numPartitions = r.ctx.parallelism
	}
	return shuffledPrepCodec(r, r.name+".rangeExchange", numPartitions, func(parts [][]T) func(T) int {
		bucket := prep(parts)
		return func(v T) int {
			b := bucket(v)
			if b < 0 {
				b = 0
			}
			if b >= numPartitions {
				b = numPartitions - 1
			}
			return b
		}
	}, codec)
}
