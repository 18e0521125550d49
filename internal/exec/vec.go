// Package exec implements a vectorized query execution engine in the
// style of X100/Vectorwise: operators pull fixed-size batches of column
// vectors, scans read columnar pages through the buffer manager (Scan) or
// receive chunks from the Active Buffer Manager (CScan), and intra-query
// parallelism uses Exchange operators with static range partitioning
// (§2.2, Equation 1).
//
// The primitives are type-specialized loops over whole column vectors;
// no operator switches on a type or an operator per tuple:
//   - expressions (Cmp, Arith, And, Or) dispatch on type and operator once
//     per batch, read column operands in place, and treat a ConstI/ConstF
//     operand as a scalar instead of broadcasting it into a vector;
//   - Select turns its predicate into a selection vector ([]int32 of
//     surviving positions) and copies survivors with one Vec.Gather per
//     column; HashJoin and Sort emit their output through Gather too;
//   - HashAggr maps each row of a batch to a dense int32 group id, then
//     runs one typed loop per aggregate over flat state slices indexed by
//     group id, so each group still sums its rows in input order.
//
// Execution happens inside the virtual-time simulation: operators charge
// per-tuple CPU cost against a shared CPU resource, and page misses block
// on the simulated disk, so query latency reflects both I/O and CPU as in
// the paper's experiments.
package exec

import (
	"fmt"
	"slices"

	"repro/internal/storage"
)

// VectorSize is the number of tuples per batch.
const VectorSize = 1024

// Vec is a typed column vector.
type Vec struct {
	T   storage.ColumnType
	I64 []int64
	F64 []float64
	Str []string
}

// NewVec allocates a vector of the given type with capacity VectorSize.
func NewVec(t storage.ColumnType) *Vec {
	v := &Vec{T: t}
	switch t {
	case storage.Int64:
		v.I64 = make([]int64, 0, VectorSize)
	case storage.Float64:
		v.F64 = make([]float64, 0, VectorSize)
	case storage.String:
		v.Str = make([]string, 0, VectorSize)
	}
	return v
}

// Len returns the number of values.
func (v *Vec) Len() int {
	switch v.T {
	case storage.Int64:
		return len(v.I64)
	case storage.Float64:
		return len(v.F64)
	default:
		return len(v.Str)
	}
}

// Reset truncates the vector to zero length.
func (v *Vec) Reset() {
	v.I64 = v.I64[:0]
	v.F64 = v.F64[:0]
	v.Str = v.Str[:0]
}

// Gather sets v to the values of src at the positions in sel, in order.
func (v *Vec) Gather(src *Vec, sel []int32) {
	switch v.T {
	case storage.Int64:
		v.I64 = appendSel(v.I64[:0], src.I64, sel)
	case storage.Float64:
		v.F64 = appendSel(v.F64[:0], src.F64, sel)
	case storage.String:
		v.Str = appendSel(v.Str[:0], src.Str, sel)
	}
}

// appendSel appends the values of src at the positions in sel onto dst.
func appendSel[T any](dst, src []T, sel []int32) []T {
	dst = slices.Grow(dst, len(sel))
	for _, i := range sel {
		dst = append(dst, src[i])
	}
	return dst
}

// appendVec appends the first n values of src onto the end of v.
func (v *Vec) appendVec(src *Vec, n int) {
	switch v.T {
	case storage.Int64:
		v.I64 = append(v.I64, src.I64[:n]...)
	case storage.Float64:
		v.F64 = append(v.F64, src.F64[:n]...)
	case storage.String:
		v.Str = append(v.Str, src.Str[:n]...)
	}
}

// grow extends s by n zero values.
func grow[T any](s []T, n int) []T {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are not preserved.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Batch is a set of equal-length vectors.
type Batch struct {
	N    int
	Vecs []*Vec
}

// NewBatch allocates a batch with the given column types.
func NewBatch(types []storage.ColumnType) *Batch {
	b := &Batch{Vecs: make([]*Vec, len(types))}
	for i, t := range types {
		b.Vecs[i] = NewVec(t)
	}
	return b
}

// Reset truncates all vectors.
func (b *Batch) Reset() {
	b.N = 0
	for _, v := range b.Vecs {
		v.Reset()
	}
}

// Types returns the column types of the batch.
func (b *Batch) Types() []storage.ColumnType {
	out := make([]storage.ColumnType, len(b.Vecs))
	for i, v := range b.Vecs {
		out[i] = v.T
	}
	return out
}

// Operator is the pull-based iterator every physical operator implements.
// Next returns nil at end of stream. The returned batch is owned by the
// operator and valid until the following Next call.
type Operator interface {
	// Open prepares the operator (registers scans, spawns workers).
	Open()
	// Next returns the next batch or nil.
	Next() *Batch
	// Close releases resources; must be called exactly once after Open.
	Close()
	// Schema returns the output column types.
	Schema() []storage.ColumnType
}

// Drain runs op to completion and returns the total tuple count (utility
// for tests and benchmarks).
func Drain(op Operator) int64 {
	op.Open()
	defer op.Close()
	var n int64
	for b := op.Next(); b != nil; b = op.Next() {
		n += int64(b.N)
	}
	return n
}

// Collect materializes the full result (for small results in tests).
func Collect(op Operator) *Batch {
	op.Open()
	defer op.Close()
	out := NewBatch(op.Schema())
	for b := op.Next(); b != nil; b = op.Next() {
		for c, v := range out.Vecs {
			v.appendVec(b.Vecs[c], b.N)
		}
		out.N += b.N
	}
	return out
}

func typeCheck(want, got storage.ColumnType, what string) {
	if want != got {
		panic(fmt.Sprintf("exec: %s: type %v, want %v", what, got, want))
	}
}
