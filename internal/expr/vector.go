package expr

import (
	"repro/internal/columnar"
	"repro/internal/row"
	"repro/internal/types"
)

// This file is the vectorized analogue of compile.go: instead of fusing an
// expression tree into a per-row closure, CompileVec and CompileVecPredicate
// fuse it into BATCH kernels that run tight typed loops over decoded column
// vectors (columnar.Vector) with selection vectors, deferring all boxing to
// the pipeline boundary. Exactly like the scalar compiler, coverage is never
// lost: any node the vector compiler does not know compiles to a per-row
// fallback that boxes the selected rows and calls the scalar compiled
// closure, so a single exotic expression does not force a whole pipeline
// off the vectorized path.

// VecBatch is the kernel input: one decoded vector per input-schema column.
// Entries no kernel references may be nil (they are never decoded).
type VecBatch struct {
	Cols []*columnar.Vector
	// N is the number of rows in the batch.
	N int
	// Scratch, when set, lends the kernels their output selections and
	// vectors instead of each allocating its own; nil allocates.
	Scratch *Scratch
}

// Scratch is a task's memory for one batch at a time, reused batch after
// batch: the slab predicate kernels cut their selections from, the vectors
// value kernels (and each literal) return, the row a scalar fallback boxes
// into, and the cache decode of the batch itself (Decoder, which a cached
// scan re-points for each batch it hands over). Its owner resets it before
// each batch, which takes back every selection and vector lent since: none
// may be read after that, so a batch's consumer keeps none of them — it
// copies values out (a group table's Append, a join's gather, a sink's
// boxing) or only reads them (an aggregator's Update). Values read out of a
// lent vector, strings included, are the reader's to keep.
type Scratch struct {
	sels []int32 // sels[len(sels):] is free
	// vecs are the vectors lent so far, the first lent of them out this batch.
	vecs []*columnar.Vector
	lent int
	row  row.Row
	// Decoder is where a cached scan decodes the task's batches.
	Decoder columnar.Decoder
}

// Reset takes back every selection and vector lent since the last Reset.
func (s *Scratch) Reset() { s.sels, s.lent = s.sels[:0], 0 }

// newSel returns an empty selection with room for n positions that aliases no
// other selection of the batch (an OR kernel reads its input selection after
// its left branch has written an output). A slab that runs out is replaced by
// one twice the size; the pieces cut from the old one stay with their holders.
func (b *VecBatch) newSel(n int) []int32 {
	s := b.Scratch
	if s == nil {
		return make([]int32, 0, n)
	}
	if cap(s.sels)-len(s.sels) < n {
		s.sels = make([]int32, 0, max(n, 2*cap(s.sels)))
	}
	at := len(s.sels)
	s.sels = s.sels[:at+n]
	return s.sels[at : at : at+n]
}

// lend is the one place a kernel gets an output vector: n rows of type t in
// boxed storage when boxed (the scalar fallback's), in the type's typed lane
// otherwise. A scratch lends its next vector when that has the kind asked
// for, and renews it: a batch's kernels run in the same order from batch to
// batch, so each gets back the vector it had, and no two lent in one batch
// alias. A nil scratch allocates.
func (s *Scratch) lend(t types.DataType, boxed bool, n int) *columnar.Vector {
	kind := columnar.KindOf(t)
	if boxed {
		kind = columnar.KindAny
	}
	if v := s.reuse(kind, false); v != nil {
		v.Renew(t, n)
		return v
	}
	if boxed {
		return s.keep(columnar.NewAnyVector(t, n))
	}
	return s.keep(columnar.NewVector(t, n))
}

// lendConst is lend for a literal: a constant vector of value (nil = NULL)
// over n rows.
func (s *Scratch) lendConst(t types.DataType, value any, n int) *columnar.Vector {
	if v := s.reuse(columnar.KindOf(t), true); v != nil {
		v.Renew(t, n)
		v.Set(0, value)
		return v
	}
	return s.keep(columnar.NewConstVector(t, value, n))
}

// reuse lends the scratch's next vector if it is of the kind and constness
// asked for, and returns nil otherwise.
func (s *Scratch) reuse(kind columnar.VecKind, konst bool) *columnar.Vector {
	if s == nil || s.lent == len(s.vecs) {
		return nil
	}
	v := s.vecs[s.lent]
	if v.Kind != kind || v.IsConst() != konst {
		return nil
	}
	s.lent++
	return v
}

// keep lends v, a new vector, in the next vector's place.
func (s *Scratch) keep(v *columnar.Vector) *columnar.Vector {
	if s == nil {
		return v
	}
	if s.lent < len(s.vecs) {
		s.vecs[s.lent] = v
	} else {
		s.vecs = append(s.vecs, v)
	}
	s.lent++
	return v
}

// scratchRow lends the row a scalar fallback boxes each selected position of
// the batch into: the scalar closures read their input before returning, and
// no two fallbacks run at once, so one row serves a batch.
func (b *VecBatch) scratchRow() row.Row {
	s := b.Scratch
	if s == nil {
		return make(row.Row, len(b.Cols))
	}
	s.row = columnar.GrowLane(s.row[:0], len(b.Cols))
	return s.row
}

// RowInto boxes row i of the batch into a caller-owned scratch row, so hot
// fallback loops reuse one allocation per batch instead of one per row; nil
// vectors contribute NULL (they are unreferenced by the expression being
// evaluated). The scratch must not be retained past the next RowInto call.
func (b *VecBatch) RowInto(i int, r row.Row) row.Row {
	for j, v := range b.Cols {
		if v != nil {
			r[j] = v.Get(i)
		} else {
			r[j] = nil
		}
	}
	return r
}

// BoxValues boxes the positions sel of a batch's columns into dst row-major,
// with no row headers (row k is dst[k*len(cols):(k+1)*len(cols)]), a column at
// a time over its typed lane; dst holds nil there and nil columns leave NULL.
func BoxValues(cols []*columnar.Vector, sel []int32, dst []any) {
	for j, c := range cols {
		if c != nil && len(sel) > 0 {
			c.BoxInto(dst[j:], len(cols), sel)
		}
	}
}

// Arena is Records() = N rows of W cells boxed back to back in Cells, with no
// row headers (Cells is nil when the rows were only counted).
type Arena struct {
	Cells []any
	N, W  int
}

func (a *Arena) Records() int { return a.N }

// CutRows cuts the rows of arenas, in order, into one exactly sized slice;
// each row is capacity-clipped, so appending to one never reaches the next.
func CutRows(arenas []Arena) []row.Row {
	n := 0
	for _, a := range arenas {
		n += a.N
	}
	out := make([]row.Row, 0, n)
	for _, a := range arenas {
		for k := 0; k < a.N; k++ {
			out = append(out, a.Cells[k*a.W:(k+1)*a.W:(k+1)*a.W])
		}
	}
	return out
}

// VecEval computes a value vector for the selected positions of a batch.
// Output vectors use absolute indexing: position i of the result aligns
// with row i of the batch, and only selected positions are defined.
type VecEval func(b *VecBatch, sel []int32) *columnar.Vector

// VecPred filters a selection vector, returning the surviving positions in
// order. Implementations must NOT mutate the input selection (OR kernels
// evaluate both branches over the same input).
type VecPred func(b *VecBatch, sel []int32) []int32

// value classes the typed kernels specialize on.
const (
	classNone = iota
	classI64  // INT, BIGINT, DATE, TIMESTAMP — widened to int64
	classF64  // DOUBLE (FLOAT keeps float32 row semantics: fallback)
	classStr  // STRING
)

func vecClass(t types.DataType) int {
	switch {
	case t.Equals(types.Int), t.Equals(types.Long), t.Equals(types.Date), t.Equals(types.Timestamp):
		return classI64
	case t.Equals(types.Double):
		return classF64
	case t.Equals(types.String):
		return classStr
	default:
		return classNone
	}
}

// Exported value-class codes so the physical layer can make fusion
// decisions (which specialized hash table a group key or join key fits).
const (
	VecClassNone = classNone
	VecClassI64  = classI64
	VecClassF64  = classF64
	VecClassStr  = classStr
)

// VecClassOf reports the kernel value class of a data type: VecClassI64
// for the int64-widened types, VecClassF64 for DOUBLE, VecClassStr for
// STRING, VecClassNone otherwise.
func VecClassOf(t types.DataType) int { return vecClass(t) }

// ---------------------------------------------------------------------------
// Value kernels

// CompileVec compiles a bound expression into a batch kernel. The boolean
// reports whether the kernel is natively vectorized: when false, the
// returned kernel is the per-row scalar fallback (still correct, and its
// output vector stores the scalar path's boxed values verbatim).
func CompileVec(e Expression) (VecEval, bool) {
	switch x := e.(type) {
	case *BoundReference:
		ord := x.Ordinal
		return func(b *VecBatch, sel []int32) *columnar.Vector {
			return b.Cols[ord]
		}, true

	case *Literal:
		t, v := x.Type, x.Value
		return func(b *VecBatch, sel []int32) *columnar.Vector {
			return b.Scratch.lendConst(t, v, b.N)
		}, true

	case *Alias:
		return CompileVec(x.Child)

	case *BinaryArith:
		return compileVecArith(x)

	case *DatePart:
		return compileVecDatePart(x)

	case *Substring:
		return compileVecSubstring(x)
	}
	return vecFallbackEval(e), false
}

// NewClassVector allocates the vector a boxed value stream of type t lands
// in: the typed lane when t belongs to a kernel value class — native kernels
// read such columns lane-direct, so the kind must match the type — and boxed
// verbatim storage otherwise (FLOAT, BOOLEAN, decimals, nested types keep
// the exact values the scalar path produced).
func NewClassVector(t types.DataType, n int) *columnar.Vector {
	return (*Scratch)(nil).lend(t, vecClass(t) == classNone, n)
}

// compileVecSubstring slices the string lane without copying: the output
// strings alias the input's bytes. Semantics are Substring.Eval's (shared
// substr helper); NULL in any operand yields NULL.
func compileVecSubstring(x *Substring) (VecEval, bool) {
	str, sok := CompileVec(x.Str)
	pos, pok := CompileVec(x.Pos)
	ln, lok := CompileVec(x.Len)
	if !sok || !pok || !lok || vecClass(x.Pos.DataType()) != classI64 || vecClass(x.Len.DataType()) != classI64 {
		return vecFallbackEval(x), false
	}
	return func(b *VecBatch, sel []int32) *columnar.Vector {
		sv, pv, lv := str(b, sel), pos(b, sel), ln(b, sel)
		out := b.Scratch.lend(types.String, false, b.N)
		sm, pm, lm := sv.Mask(), pv.Mask(), lv.Mask()
		nulls := sv.HasNulls() || pv.HasNulls() || lv.HasNulls()
		for _, i := range sel {
			ii := int(i)
			if nulls && (sv.IsNull(ii) || pv.IsNull(ii) || lv.IsNull(ii)) {
				out.SetNull(ii)
				continue
			}
			out.Str[ii] = substr(sv.Str[ii&sm], pv.I64[ii&pm], lv.I64[ii&lm])
		}
		return out
	}, true
}

// vecFallbackEval boxes each selected row and evaluates the scalar compiled
// closure — the "call into the interpreter" escape hatch of §4.3.4, one
// level up.
func vecFallbackEval(e Expression) VecEval { return VecFromScalar(Compile(e), e.DataType()) }

// VecFromScalar lifts a per-row evaluator of result type t into a batch
// kernel (the fallback's body; exported so an operator honoring the codegen
// knob can lift the tree-walking interpreter the same way).
func VecFromScalar(ev func(row.Row) any, t types.DataType) VecEval {
	return func(b *VecBatch, sel []int32) *columnar.Vector {
		// KindAny storage keeps the scalar path's boxed representation
		// exactly, whatever the declared type says.
		out := b.Scratch.lend(t, true, b.N)
		scratch := b.scratchRow()
		for _, i := range sel {
			ii := int(i)
			if val := ev(b.RowInto(ii, scratch)); val == nil {
				out.SetNull(ii)
			} else {
				out.Any[ii] = val
			}
		}
		return out
	}
}

// compileVecDatePart extracts year/month/day from a DATE vector without
// boxing: days-since-epoch come out of the decoded int64 lane and the civil
// split runs once per selected row.
func compileVecDatePart(x *DatePart) (VecEval, bool) {
	if !x.Child.DataType().Equals(types.Date) {
		return vecFallbackEval(x), false
	}
	child, ok := CompileVec(x.Child)
	if !ok {
		return vecFallbackEval(x), false
	}
	part := x.Part
	return func(b *VecBatch, sel []int32) *columnar.Vector {
		v := child(b, sel)
		out := b.Scratch.lend(types.Int, false, b.N)
		m := v.Mask()
		for _, i := range sel {
			ii := int(i)
			if v.IsNull(ii) {
				out.SetNull(ii)
				continue
			}
			y, mo, d := DaysToCivil(int32(v.I64[ii&m]))
			switch part {
			case 0:
				out.I64[ii] = int64(int32(y))
			case 1:
				out.I64[ii] = int64(int32(mo))
			default:
				out.I64[ii] = int64(int32(d))
			}
		}
		return out
	}, true
}

// compileVecArith builds typed arithmetic kernels for the int64 and float64
// classes, mirroring the scalar interpreter exactly (INT truncates to 32
// bits per node; x/0 and x%0 are NULL for integers; float division follows
// IEEE). Anything else — decimals, FLOAT, mixed classes — falls back.
func compileVecArith(x *BinaryArith) (VecEval, bool) {
	t := x.DataType()
	cls := vecClass(t)
	if cls != classI64 && cls != classF64 ||
		vecClass(x.Left.DataType()) != cls || vecClass(x.Right.DataType()) != cls {
		return vecFallbackEval(x), false
	}
	l, lok := CompileVec(x.Left)
	r, rok := CompileVec(x.Right)
	if !lok || !rok {
		return vecFallbackEval(x), false
	}
	op := x.Op
	if cls == classI64 {
		narrow := t.Equals(types.Int) || t.Equals(types.Date)
		return func(b *VecBatch, sel []int32) *columnar.Vector {
			lv, rv := l(b, sel), r(b, sel)
			out := b.Scratch.lend(t, false, b.N)
			lm, rm := lv.Mask(), rv.Mask()
			ld, rd := lv.I64, rv.I64
			if !lv.HasNulls() && !rv.HasNulls() && op != OpDiv && op != OpMod {
				switch op {
				case OpAdd:
					for _, i := range sel {
						ii := int(i)
						out.I64[ii] = ld[ii&lm] + rd[ii&rm]
					}
				case OpSub:
					for _, i := range sel {
						ii := int(i)
						out.I64[ii] = ld[ii&lm] - rd[ii&rm]
					}
				default: // OpMul
					for _, i := range sel {
						ii := int(i)
						out.I64[ii] = ld[ii&lm] * rd[ii&rm]
					}
				}
				if narrow {
					for _, i := range sel {
						ii := int(i)
						out.I64[ii] = int64(int32(out.I64[ii]))
					}
				}
				return out
			}
			for _, i := range sel {
				ii := int(i)
				if lv.IsNull(ii) || rv.IsNull(ii) {
					out.SetNull(ii)
					continue
				}
				v, ok := i64Arith(op, ld[ii&lm], rd[ii&rm])
				if !ok {
					out.SetNull(ii)
					continue
				}
				if narrow {
					v = int64(int32(v))
				}
				out.I64[ii] = v
			}
			return out
		}, true
	}
	return func(b *VecBatch, sel []int32) *columnar.Vector {
		lv, rv := l(b, sel), r(b, sel)
		out := b.Scratch.lend(t, false, b.N)
		lm, rm := lv.Mask(), rv.Mask()
		ld, rd := lv.F64, rv.F64
		if !lv.HasNulls() && !rv.HasNulls() {
			switch op {
			case OpAdd:
				for _, i := range sel {
					ii := int(i)
					out.F64[ii] = ld[ii&lm] + rd[ii&rm]
				}
			case OpSub:
				for _, i := range sel {
					ii := int(i)
					out.F64[ii] = ld[ii&lm] - rd[ii&rm]
				}
			case OpMul:
				for _, i := range sel {
					ii := int(i)
					out.F64[ii] = ld[ii&lm] * rd[ii&rm]
				}
			default:
				for _, i := range sel {
					ii := int(i)
					out.F64[ii] = floatArith(op, ld[ii&lm], rd[ii&rm])
				}
			}
			return out
		}
		for _, i := range sel {
			ii := int(i)
			if lv.IsNull(ii) || rv.IsNull(ii) {
				out.SetNull(ii)
				continue
			}
			out.F64[ii] = floatArith(op, ld[ii&lm], rd[ii&rm])
		}
		return out
	}, true
}

// i64Arith mirrors intArith without boxing; ok=false means SQL NULL.
func i64Arith(op ArithOp, a, b int64) (int64, bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	default: // OpMod
		if b == 0 {
			return 0, false
		}
		return a % b, true
	}
}

// ---------------------------------------------------------------------------
// Predicate kernels

// CompileVecPredicate compiles a bound boolean expression into a selection
// kernel (WHERE semantics: NULL does not match). The boolean reports
// whether any part of the predicate is natively vectorized.
func CompileVecPredicate(e Expression) (VecPred, bool) {
	switch x := e.(type) {
	case *Comparison:
		return compileVecCmp(x)

	case *And:
		l, lok := CompileVecPredicate(x.Left)
		r, rok := CompileVecPredicate(x.Right)
		return func(b *VecBatch, sel []int32) []int32 {
			sel = l(b, sel)
			if len(sel) == 0 {
				return sel
			}
			return r(b, sel)
		}, lok || rok

	case *Or:
		// a OR b is true exactly when a is true or b is true, so the result
		// selection is the ordered union of the branch selections (NULL
		// branches simply do not contribute — matching 3-valued logic).
		l, lok := CompileVecPredicate(x.Left)
		r, rok := CompileVecPredicate(x.Right)
		return func(b *VecBatch, sel []int32) []int32 {
			return unionSel(l(b, sel), r(b, sel), b)
		}, lok || rok

	case *IsNull:
		child, ok := CompileVec(x.Child)
		if !ok {
			return vecFallbackPred(x), false
		}
		return func(b *VecBatch, sel []int32) []int32 {
			v := child(b, sel)
			if !v.HasNulls() {
				return nil
			}
			out := b.newSel(len(sel))
			for _, i := range sel {
				if v.IsNull(int(i)) {
					out = append(out, i)
				}
			}
			return out
		}, true

	case *IsNotNull:
		child, ok := CompileVec(x.Child)
		if !ok {
			return vecFallbackPred(x), false
		}
		return func(b *VecBatch, sel []int32) []int32 {
			v := child(b, sel)
			if !v.HasNulls() {
				return sel
			}
			out := b.newSel(len(sel))
			for _, i := range sel {
				if !v.IsNull(int(i)) {
					out = append(out, i)
				}
			}
			return out
		}, true

	case *In:
		return compileVecIn(x)

	case *StringMatch:
		return compileVecStrPred(x, x.Left, x.Right, x.Kind.match)

	case *Like:
		return compileVecStrPred(x, x.Left, x.Pattern, LikeMatch)

	case *Literal:
		if x.Value == true {
			return func(b *VecBatch, sel []int32) []int32 { return sel }, true
		}
		return func(b *VecBatch, sel []int32) []int32 { return nil }, true

	case *BoundReference:
		if x.Type.Equals(types.Boolean) {
			ord := x.Ordinal
			return func(b *VecBatch, sel []int32) []int32 {
				v := b.Cols[ord]
				out := b.newSel(len(sel))
				for _, i := range sel {
					ii := int(i)
					if !v.IsNull(ii) && v.Bool[ii] {
						out = append(out, i)
					}
				}
				return out
			}, true
		}
	}
	return vecFallbackPred(e), false
}

// vecFallbackPred boxes each selected row and runs the scalar predicate.
func vecFallbackPred(e Expression) VecPred {
	pred := CompilePredicate(e)
	return func(b *VecBatch, sel []int32) []int32 {
		out := b.newSel(len(sel))
		scratch := b.scratchRow()
		for _, i := range sel {
			if pred(b.RowInto(int(i), scratch)) {
				out = append(out, i)
			}
		}
		return out
	}
}

// compileVecStrPred vectorizes a test of one string against another as a
// direct loop over the string lanes (no boxing, no per-row dispatch on the
// node): StartsWith/EndsWith/Contains — the targets the SimplifyLike rule
// lowers prefix/suffix/substring LIKE patterns into — and general LIKE, whose
// backtracking matcher still runs per row.
func compileVecStrPred(x, left, right Expression, match func(s, operand string) bool) (VecPred, bool) {
	if vecClass(left.DataType()) != classStr || vecClass(right.DataType()) != classStr {
		return vecFallbackPred(x), false
	}
	l, lok := CompileVec(left)
	r, rok := CompileVec(right)
	if !lok || !rok {
		return vecFallbackPred(x), false
	}
	return func(b *VecBatch, sel []int32) []int32 {
		lv, rv := l(b, sel), r(b, sel)
		out := b.newSel(len(sel))
		lm, rm := lv.Mask(), rv.Mask()
		ld, rd := lv.Str, rv.Str
		for _, i := range sel {
			ii := int(i)
			if !lv.IsNull(ii) && !rv.IsNull(ii) && match(ld[ii&lm], rd[ii&rm]) {
				out = append(out, i)
			}
		}
		return out
	}, true
}

// unionSel merges two ordered selections (each a subsequence of the same
// input selection) preserving row order.
func unionSel(a, b []int32, batch *VecBatch) []int32 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := batch.newSel(len(a) + len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// compileVecCmp specializes comparisons on the operand class with direct
// typed loops; the hot (column ⋈ constant) int64 shape gets fully unrolled
// per-operator loops.
func compileVecCmp(x *Comparison) (VecPred, bool) {
	cls := vecClass(x.Left.DataType())
	if cls == classNone || vecClass(x.Right.DataType()) != cls {
		return vecFallbackPred(x), false
	}
	l, lok := CompileVec(x.Left)
	r, rok := CompileVec(x.Right)
	if !lok || !rok {
		return vecFallbackPred(x), false
	}
	op := x.Op
	return func(b *VecBatch, sel []int32) []int32 {
		lv, rv := l(b, sel), r(b, sel)
		if cls == classI64 && !lv.IsConst() && !lv.HasNulls() && rv.IsConst() && !rv.HasNulls() {
			return i64FilterConst(op, lv.I64, rv.I64[0], sel, b.newSel(len(sel)))
		}
		out := b.newSel(len(sel))
		lm, rm := lv.Mask(), rv.Mask()
		switch cls {
		case classI64:
			ld, rd := lv.I64, rv.I64
			for _, i := range sel {
				ii := int(i)
				if lv.IsNull(ii) || rv.IsNull(ii) {
					continue
				}
				if cmpResult(op, ld[ii&lm], rd[ii&rm]) {
					out = append(out, i)
				}
			}
		case classF64:
			ld, rd := lv.F64, rv.F64
			for _, i := range sel {
				ii := int(i)
				if lv.IsNull(ii) || rv.IsNull(ii) {
					continue
				}
				if cmpFloat(op, ld[ii&lm], rd[ii&rm]) {
					out = append(out, i)
				}
			}
		default: // classStr
			ld, rd := lv.Str, rv.Str
			for _, i := range sel {
				ii := int(i)
				if lv.IsNull(ii) || rv.IsNull(ii) {
					continue
				}
				if cmpString(op, ld[ii&lm], rd[ii&rm]) {
					out = append(out, i)
				}
			}
		}
		return out
	}, true
}

// i64FilterConst is the fully unrolled hot path: a null-free int64 column
// against a constant — one branch per row, no calls, no boxing.
func i64FilterConst(op CmpOp, data []int64, c int64, sel, out []int32) []int32 {
	switch op {
	case OpEQ:
		for _, i := range sel {
			if data[i] == c {
				out = append(out, i)
			}
		}
	case OpNEQ:
		for _, i := range sel {
			if data[i] != c {
				out = append(out, i)
			}
		}
	case OpLT:
		for _, i := range sel {
			if data[i] < c {
				out = append(out, i)
			}
		}
	case OpLE:
		for _, i := range sel {
			if data[i] <= c {
				out = append(out, i)
			}
		}
	case OpGT:
		for _, i := range sel {
			if data[i] > c {
				out = append(out, i)
			}
		}
	default: // OpGE
		for _, i := range sel {
			if data[i] >= c {
				out = append(out, i)
			}
		}
	}
	return out
}

// compileVecIn vectorizes constant IN lists over the int64 and string
// classes as hash-set membership (rows matching NULL list entries yield
// NULL, which a predicate drops — so only concrete members matter).
func compileVecIn(x *In) (VecPred, bool) {
	cls := vecClass(x.Value.DataType())
	if cls != classI64 && cls != classStr {
		return vecFallbackPred(x), false
	}
	val, ok := CompileVec(x.Value)
	if !ok {
		return vecFallbackPred(x), false
	}
	i64Set := make(map[int64]struct{}, len(x.List))
	strSet := make(map[string]struct{}, len(x.List))
	for _, e := range x.List {
		lit, isLit := e.(*Literal)
		if !isLit {
			return vecFallbackPred(x), false
		}
		if lit.Value == nil {
			continue
		}
		switch v := lit.Value.(type) {
		case int32:
			i64Set[int64(v)] = struct{}{}
		case int64:
			i64Set[v] = struct{}{}
		case string:
			strSet[v] = struct{}{}
		default:
			return vecFallbackPred(x), false
		}
	}
	return func(b *VecBatch, sel []int32) []int32 {
		v := val(b, sel)
		out := b.newSel(len(sel))
		m := v.Mask()
		if cls == classI64 {
			for _, i := range sel {
				ii := int(i)
				if v.IsNull(ii) {
					continue
				}
				if _, hit := i64Set[v.I64[ii&m]]; hit {
					out = append(out, i)
				}
			}
			return out
		}
		for _, i := range sel {
			ii := int(i)
			if v.IsNull(ii) {
				continue
			}
			if _, hit := strSet[v.Str[ii&m]]; hit {
				out = append(out, i)
			}
		}
		return out
	}, true
}
