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
// per reducer in partition order, so output order is identical to a
// sequential pass. A panicking bucket function fails the stage with an error
// (fail-fast, like computeAll).
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

	buckets := make([][]T, numPartitions)
	for b := 0; b < numPartitions; b++ {
		n := 0
		for _, local := range locals {
			n += len(local[b])
		}
		merged := make([]T, 0, n)
		for _, local := range locals {
			merged = append(merged, local[b]...)
		}
		buckets[b] = merged
	}
	return buckets, nil
}

// objectSized is implemented by record types that can report an
// approximate in-memory size (row.Row does); shuffle byte accounting
// samples it rather than sizing every record.
type objectSized interface{ ObjectSize() int64 }

// sampledSize estimates the total bytes of parts by sizing up to 32 records
// per partition and extrapolating linearly; it returns 0 when the record
// type cannot report sizes.
func sampledSize[T any](parts [][]T) int64 {
	var total int64
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		k := len(part)
		if k > 32 {
			k = 32
		}
		var s int64
		for i := 0; i < k; i++ {
			sz, ok := any(part[i]).(objectSized)
			if !ok {
				return 0
			}
			s += sz.ObjectSize()
		}
		total += s * int64(len(part)) / int64(k)
	}
	return total
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
	return shuffledScatter(parent, name, numPartitions, func(jc context.Context, parts [][]T) ([][]T, int64, error) {
		var records int64
		for _, part := range parts {
			records += int64(len(part))
		}
		buckets, err := bucketize(jc, parent.ctx, parts, numPartitions, prep(parts))
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
	return shuffledScatter(r, r.name+".exchange", reducers, func(_ context.Context, parts [][]T) ([][]T, int64, error) {
		if reducers < 1 || reducers > buckets {
			return nil, 0, fmt.Errorf("rdd: %d reducers for %d pre-split buckets", reducers, buckets)
		}
		kept := 0
		for pi, part := range parts {
			if len(part)%buckets != 0 {
				return nil, 0, fmt.Errorf("rdd: pre-split map partition %d holds %d records for %d buckets", pi, len(part), buckets)
			}
			for _, v := range part {
				if records(v) > 0 {
					kept++
				}
			}
		}
		all, out := make([]T, 0, kept), make([][]T, reducers)
		var total int64
		for q := range out {
			from := len(all)
			for b := q * buckets / reducers; b < (q+1)*buckets/reducers; b++ {
				for _, part := range parts {
					for i := b; i < len(part); i += buckets {
						if n := records(part[i]); n > 0 {
							all = append(all, part[i])
							total += n
						}
					}
				}
			}
			if len(all) > from {
				out[q] = all[from:len(all):len(all)]
			}
		}
		return out, total, nil
	}, nil)
}

// shuffledScatter builds the reduce-side RDD over the map stage; scatter
// turns the map partitions into one bucket per reduce partition and reports
// the records it moved. With a codec and an installed ShuffleService, the map
// stage publishes its buckets (best effort) for peers working other partitions
// of the same query, and a reduce task first tries to fetch its bucket from a
// peer that already ran this shuffle's map side; a miss (nobody ran it, the
// owner died, the block was evicted, the bytes do not decode) falls back to
// the map stage — exactly the lineage-recompute story, so a lost shuffle
// output costs recompute time, never correctness.
func shuffledScatter[T any](parent *RDD[T], name string, numPartitions int, scatter func(jc context.Context, parts [][]T) ([][]T, int64, error), codec *Codec[T]) *RDD[T] {
	shuffleID := ""
	var svc ShuffleService
	if codec != nil {
		if svc = parent.ctx.shuffleService(); svc != nil {
			shuffleID = parent.ctx.nextShuffleID()
		}
	}
	mapSide := NewStage(parent, func(jc context.Context, parts [][]T) ([][]T, error) {
		start := time.Now()
		buckets, records, err := scatter(jc, parts)
		if err == nil {
			parent.ctx.shuffleRecords.Add(records)
		}
		if parent.ctx.Trace() != nil || traceSink(jc) != nil {
			span := metrics.Span{
				Kind:    metrics.SpanShuffle,
				Name:    name,
				Start:   metrics.Since(start),
				DurNS:   time.Since(start).Nanoseconds(),
				Bytes:   sampledSize(parts),
				Records: records,
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
					return buckets, nil // unencodable records: peers recompute instead
				}
			}
			svc.Publish(jc, shuffleID, enc)
		}
		return buckets, err
	})
	return newRDD(parent.ctx, name, numPartitions, func(jc context.Context, p int) ([]T, error) {
		if shuffleID != "" {
			if data, ok, ferr := svc.FetchBucket(jc, shuffleID, p); ferr == nil && ok {
				if vals, derr := codec.Decode(data); derr == nil {
					return vals, nil
				}
			}
		}
		buckets, err := mapSide.Value(jc)
		if err != nil {
			return nil, err
		}
		return buckets[p], nil
	}).Reads(mapSide)
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
