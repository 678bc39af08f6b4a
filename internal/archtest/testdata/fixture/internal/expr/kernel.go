package expr

import col "repro/internal/columnar"

// The lending helpers may allocate.
func (s *Scratch) lend(t col.DataType, n int) *col.Vector { return col.NewVector(t, n) }

func (s *Scratch) lendConst(t col.DataType, v any, n int) *col.Vector {
	return col.NewConstVector(t, v, n)
}

// A kernel allocating its own output, under the import's other name.
func compileVecNeg(t col.DataType) VecEval {
	return func(b *VecBatch, sel []int32) *col.Vector {
		return col.NewVector(t, b.N)
	}
}
