package plan

// Stats as it stood before a LocalRelation's flat size came from its memo
// cell: every call walked the relation's rows again.
func Stats(p LogicalPlan) Statistics {
	switch n := p.(type) {
	case *LocalRelation:
		if n.TableStats != nil {
			return leafStats(n.TableStats, n.Attrs)
		}
		var size int64
		for _, r := range n.Rows {
			size += r.FlatSize()
		}
		return Statistics{SizeInBytes: size, RowCount: int64(len(n.Rows))}
	case *DataSourceRelation:
		if n.TableStats != nil {
			return leafStats(n.TableStats, n.Attrs)
		}
		return Statistics{SizeInBytes: defaultSizeInBytes}
	}
	return Statistics{}
}

// rowCount walks a LocalRelation's rows outside a Stats case: not reported.
func rowCount(n *LocalRelation) int {
	c := 0
	for range n.Rows {
		c++
	}
	return c
}
