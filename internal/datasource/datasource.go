// Package datasource defines the Spark SQL data source API (paper §4.4.1):
// relations loaded by name with key-value options, exposing progressively
// smarter scan interfaces — TableScan, PrunedScan, PrunedFilteredScan and
// CatalystScan — that let the optimizer push column pruning and predicates
// into the source, plus ColumnarScan, this repository's extension of those
// four: the same pruning and filters, answered with typed column batches
// instead of rows. Concrete sources (CSV, JSON, the columnar file format,
// and the federated in-memory database) live in subpackages and in
// internal/memdb.
package datasource

import (
	"fmt"
	"sync"

	"repro/internal/columnar"
	"repro/internal/expr"
	"repro/internal/row"
	"repro/internal/types"
)

// Relation is the object a provider returns for a successfully loaded data
// source: at minimum a schema, optionally a size estimate (paper: "each
// BaseRelation contains a schema and an optional estimated size in bytes").
type Relation interface {
	Schema() types.StructType
}

// SizedRelation lets a relation report its estimated size in bytes, feeding
// the broadcast-join cost model.
type SizedRelation interface {
	Relation
	SizeInBytes() int64
}

// Scan is partitioned row output from a relation. Partition functions run
// lazily inside RDD tasks.
type Scan struct {
	NumPartitions int
	// Partition produces the rows of partition p. It must be safe to call
	// concurrently for distinct p and repeatedly for the same p (lineage
	// recomputation).
	Partition func(p int) []row.Row
	// PreferredLocations optionally exposes data locality per partition
	// (paper: "all data sources can also expose network locality
	// information"); the in-process scheduler records but does not need it.
	PreferredLocations func(p int) []string
}

// TableScan is the simplest interface: return all rows of all columns.
type TableScan interface {
	Relation
	ScanAll() (Scan, error)
}

// PrunedScan adds projection pushdown: return rows containing only the
// requested columns, in the requested order.
type PrunedScan interface {
	Relation
	ScanPruned(columns []string) (Scan, error)
}

// PrunedFilteredScan adds predicate pushdown with the simple Filter algebra.
// Filters are advisory: the source should try to apply them but may return
// false positives; the engine keeps a residual filter unless the source
// also implements ExactFilterScan.
type PrunedFilteredScan interface {
	Relation
	ScanPrunedFiltered(columns []string, filters []Filter) (Scan, error)
}

// CatalystScan hands the source complete Catalyst expression trees for
// pushdown — the most powerful (and least stable) interface.
type CatalystScan interface {
	Relation
	ScanCatalyst(columns []string, predicates []expr.Expression) (Scan, error)
}

// ColumnarScan is PrunedFilteredScan for a source that already stores its
// data by column: the same pruning and filter pushdown, but the answer is
// the surviving rows as typed column vectors, so the vectorized engine reads
// the source's columns directly and only rows that survive the pipeline are
// ever boxed. It is not one of the paper's four interfaces.
type ColumnarScan interface {
	Relation
	ScanColumnar(columns []string, filters []Filter) (BatchScan, error)
}

// BatchScan is partitioned columnar output from a relation.
type BatchScan struct {
	NumPartitions int
	// PartitionBytes is each partition's stored size, when the source knows
	// it without decoding (nil otherwise).
	PartitionBytes []int64
	// Partition produces the batches of partition p, in order, under Scan's
	// concurrency contract, and reports what it read and left out. A batch
	// whose rows all fail the filters is still produced, empty; a batch the
	// source skips without decoding is not. Nothing reachable from a returned
	// batch is written again: whatever the source reuses between calls — the
	// lanes its filters read, their selections — stays behind.
	Partition func(p int) ([]Batch, BatchStats)
}

// Batch is a run of rows held by column: the rows that passed the scan's
// filters and no others.
type Batch struct {
	// Cols holds one vector per requested column, N long: position i of each
	// is the batch's row i. In an empty batch they may be nil.
	Cols []*columnar.Vector
	// N is the number of rows in the batch.
	N int
	// Sel is the selection of all N rows, 0 … N-1: what a consumer's kernels
	// start from. It may be shared between batches and must not be written to.
	Sel []int32
}

// BatchStats is what one partition of a BatchScan read to produce its batches
// and did not hand over.
type BatchStats struct {
	// GroupsSkipped counts batches ruled out by statistics, undecoded.
	GroupsSkipped int
	// RowsRead counts the rows the filters ran over: the batches' rows plus
	// RowsPruned, the rows the filters dropped.
	RowsRead, RowsPruned int
	// FallbackRows counts rows a filter tested boxed, one at a time, for want
	// of a kernel over the column's lane.
	FallbackRows int
}

// Rows is the scan as rows: every selected position boxed, in order. A
// columnar source implements its row interfaces with it.
func (b BatchScan) Rows() Scan {
	return Scan{
		NumPartitions: b.NumPartitions,
		Partition: func(p int) []row.Row {
			var out []row.Row
			batches, _ := b.Partition(p)
			for _, batch := range batches {
				out = append(out, expr.BoxRows(batch.Cols, batch.Sel)...)
			}
			return out
		},
	}
}

// ExactFilterScan marks a PrunedFilteredScan whose filter evaluation is
// exact for the returned filters, allowing the engine to drop the residual
// predicate. HandledFilters reports which of the candidate filters the
// source will fully evaluate.
type ExactFilterScan interface {
	HandledFilters(filters []Filter) []Filter
}

// InsertableRelation supports writing: the engine provides partitioned rows
// to append (paper: "similar interfaces exist for writing data ... simpler
// because Spark SQL just provides an RDD of Row objects to be written").
type InsertableRelation interface {
	Relation
	Insert(partitions [][]row.Row) error
}

// Provider constructs relations from key-value options — the createRelation
// entry point keyed by the USING name in SQL.
type Provider interface {
	CreateRelation(options map[string]string) (Relation, error)
}

// ProviderFunc adapts a function to Provider.
type ProviderFunc func(options map[string]string) (Relation, error)

// CreateRelation implements Provider.
func (f ProviderFunc) CreateRelation(options map[string]string) (Relation, error) {
	return f(options)
}

// Registry maps USING names (e.g. "csv", "json", "jdbc") to providers. A
// Context owns one; it is safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	providers map[string]Provider
}

// NewRegistry returns an empty provider registry.
func NewRegistry() *Registry {
	return &Registry{providers: make(map[string]Provider)}
}

// Register adds a provider under a name, replacing any previous entry.
func (r *Registry) Register(name string, p Provider) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.providers[name] = p
}

// Lookup resolves a provider by name.
func (r *Registry) Lookup(name string) (Provider, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.providers[name]
	if !ok {
		return nil, fmt.Errorf("datasource: no provider registered as %q", name)
	}
	return p, nil
}

// Names lists the registered provider names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.providers))
	for n := range r.providers {
		out = append(out, n)
	}
	return out
}
