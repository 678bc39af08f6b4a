package core

// RefreshSession as it stood before a statement paid only for what changed
// in the catalog: it re-encoded every table on every statement.
func (rt *ClusterRuntime) RefreshSession() {
	tables := rt.collectTables()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	spec := rt.template
	spec.Tables = tables
	probe, err := sqlwire.EncodeSession(&spec)
	if err != nil {
		rt.shippable = false
		return
	}
	h := fnv.New64a()
	h.Write(probe)
	rt.fp = h.Sum64()
}

// collectTables encodes the catalog; called from anywhere but RefreshSession
// it is not the per-statement walk.
func (rt *ClusterRuntime) collectTables() []sqlwire.TableSpec {
	var out []sqlwire.TableSpec
	for _, name := range rt.e.Catalog.TableNames() {
		lp, _ := rt.e.Catalog.LookupTable(name)
		if t, ok := lp.(*plan.LocalRelation); ok {
			blk, _ := row.EncodeRows(t.Rows)
			out = append(out, sqlwire.TableSpec{Name: name, Partitions: [][]byte{blk}})
		}
	}
	return out
}

// ClusterSummaryFor as it stood before an event read its own trace's spans:
// it copied the whole trace ring and filtered the copy.
func (rt *ClusterRuntime) ClusterSummaryFor(traceID string) string {
	byWorker := make(map[string]WorkerActual)
	spans := rt.e.RDDCtx.Trace().Snapshot()
	if traceID != "" {
		spans = filterTrace(spans, traceID)
	}
	for _, wa := range workerActuals(spans) {
		byWorker[wa.Worker] = wa
	}
	return fmt.Sprint(byWorker)
}
