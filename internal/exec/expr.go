package exec

import (
	"fmt"
	"strings"

	"repro/internal/storage"
)

// Expr is a vectorized expression over an input batch. Boolean results
// are Int64 vectors of 0/1.
type Expr interface {
	Type() storage.ColumnType
	// Eval computes the expression over b into out (reset by the callee).
	Eval(b *Batch, out *Vec)
}

// Col references input column i.
type Col struct {
	Idx int
	T   storage.ColumnType
}

// Type implements Expr.
func (c Col) Type() storage.ColumnType { return c.T }

// Eval implements Expr.
func (c Col) Eval(b *Batch, out *Vec) {
	src := b.Vecs[c.Idx]
	typeCheck(c.T, src.T, "column ref")
	out.Reset()
	out.T = c.T
	switch c.T {
	case storage.Int64:
		out.I64 = append(out.I64, src.I64...)
	case storage.Float64:
		out.F64 = append(out.F64, src.F64...)
	case storage.String:
		out.Str = append(out.Str, src.Str...)
	}
}

// ConstI is an int64 literal.
type ConstI int64

// Type implements Expr.
func (ConstI) Type() storage.ColumnType { return storage.Int64 }

// Eval implements Expr.
func (c ConstI) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Int64
	for i := 0; i < b.N; i++ {
		out.I64 = append(out.I64, int64(c))
	}
}

// ConstF is a float64 literal.
type ConstF float64

// Type implements Expr.
func (ConstF) Type() storage.ColumnType { return storage.Float64 }

// Eval implements Expr.
func (c ConstF) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Float64
	for i := 0; i < b.N; i++ {
		out.F64 = append(out.F64, float64(c))
	}
}

// operandVec returns e evaluated over b: a Col's input vector itself (read
// in place, not copied), or scratch after evaluating e into it.
func operandVec(e Expr, b *Batch, scratch *Vec) *Vec {
	if c, ok := e.(Col); ok {
		src := b.Vecs[c.Idx]
		typeCheck(c.T, src.T, "column ref")
		return src
	}
	e.Eval(b, scratch)
	return scratch
}

// operand is one input of a binary primitive. Row i reads vec[i&mask]:
// mask is -1 for a vector and 0 for a ConstI/ConstF scalar, held as a
// one-element vector, so one loop serves every operand shape.
type operand[T int64 | float64 | string] struct {
	vec  []T
	mask int
}

func intOperand(e Expr, b *Batch, scratch *Vec) operand[int64] {
	if c, ok := e.(ConstI); ok {
		scratch.I64 = append(scratch.I64[:0], int64(c))
		return operand[int64]{vec: scratch.I64}
	}
	return operand[int64]{vec: operandVec(e, b, scratch).I64, mask: -1}
}

func floatOperand(e Expr, b *Batch, scratch *Vec) operand[float64] {
	if c, ok := e.(ConstF); ok {
		scratch.F64 = append(scratch.F64[:0], float64(c))
		return operand[float64]{vec: scratch.F64}
	}
	return operand[float64]{vec: operandVec(e, b, scratch).F64, mask: -1}
}

func strOperand(e Expr, b *Batch, scratch *Vec) operand[string] {
	return operand[string]{vec: operandVec(e, b, scratch).Str, mask: -1}
}

// opLen is the row count of a binary primitive over l and r: the length of
// a vector operand, or the batch size when both are scalars.
func opLen[T int64 | float64 | string](l, r operand[T], b *Batch) int {
	switch {
	case l.mask != 0:
		return len(l.vec)
	case r.mask != 0:
		return len(r.vec)
	default:
		return b.N
	}
}

// Arith is one of "+", "-", "*", "/" over numeric operands of equal type.
type Arith struct {
	Op   string
	L, R Expr
	l, r Vec
}

// NewArith builds an arithmetic node.
func NewArith(op string, l, r Expr) *Arith {
	if l.Type() != r.Type() || l.Type() == storage.String {
		panic(fmt.Sprintf("exec: arith %q over %v/%v", op, l.Type(), r.Type()))
	}
	return &Arith{Op: op, L: l, R: r}
}

// Type implements Expr.
func (a *Arith) Type() storage.ColumnType { return a.L.Type() }

// Eval implements Expr.
func (a *Arith) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = a.Type()
	switch a.Type() {
	case storage.Int64:
		l, r := intOperand(a.L, b, &a.l), intOperand(a.R, b, &a.r)
		out.I64 = resize(out.I64, opLen(l, r, b))
		arith(a.Op, l, r, out.I64)
	case storage.Float64:
		l, r := floatOperand(a.L, b, &a.l), floatOperand(a.R, b, &a.r)
		out.F64 = resize(out.F64, opLen(l, r, b))
		arith(a.Op, l, r, out.F64)
	}
}

// arith computes out = l op r, one loop per operator.
func arith[T int64 | float64](op string, l, r operand[T], out []T) {
	x, lm, y, rm := l.vec, l.mask, r.vec, r.mask
	switch op {
	case "+":
		for i := range out {
			out[i] = x[i&lm] + y[i&rm]
		}
	case "-":
		for i := range out {
			out[i] = x[i&lm] - y[i&rm]
		}
	case "*":
		for i := range out {
			out[i] = x[i&lm] * y[i&rm]
		}
	case "/":
		for i := range out {
			out[i] = x[i&lm] / y[i&rm]
		}
	default:
		panic("exec: bad arith op " + op)
	}
}

// Cmp compares two operands with one of "<", "<=", "==", "!=", ">=", ">",
// yielding 0/1 int64. Float operands compare as a three-way comparison
// would, so a NaN compares equal to everything.
type Cmp struct {
	Op   string
	L, R Expr
	l, r Vec
}

// NewCmp builds a comparison node.
func NewCmp(op string, l, r Expr) *Cmp {
	if l.Type() != r.Type() {
		panic(fmt.Sprintf("exec: cmp %q over %v/%v", op, l.Type(), r.Type()))
	}
	return &Cmp{Op: op, L: l, R: r}
}

// Type implements Expr.
func (*Cmp) Type() storage.ColumnType { return storage.Int64 }

// Eval implements Expr.
func (c *Cmp) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Int64
	switch c.L.Type() {
	case storage.Int64:
		l, r := intOperand(c.L, b, &c.l), intOperand(c.R, b, &c.r)
		out.I64 = resize(out.I64, opLen(l, r, b))
		compare(c.Op, l, r, out.I64)
	case storage.Float64:
		l, r := floatOperand(c.L, b, &c.l), floatOperand(c.R, b, &c.r)
		out.I64 = resize(out.I64, opLen(l, r, b))
		compare(c.Op, l, r, out.I64)
	case storage.String:
		l, r := strOperand(c.L, b, &c.l), strOperand(c.R, b, &c.r)
		out.I64 = resize(out.I64, opLen(l, r, b))
		compare(c.Op, l, r, out.I64)
	}
}

// compare computes out = l op r as 0/1, one loop per operator. The
// forms are those of a three-way comparison, so a NaN compares equal.
func compare[T int64 | float64 | string](op string, l, r operand[T], out []int64) {
	x, lm, y, rm := l.vec, l.mask, r.vec, r.mask
	switch op {
	case "<":
		for i := range out {
			out[i] = b2i(x[i&lm] < y[i&rm])
		}
	case "<=":
		for i := range out {
			out[i] = b2i(!(x[i&lm] > y[i&rm]))
		}
	case "==":
		for i := range out {
			out[i] = b2i(!(x[i&lm] < y[i&rm]) && !(x[i&lm] > y[i&rm]))
		}
	case "!=":
		for i := range out {
			out[i] = b2i(x[i&lm] < y[i&rm] || x[i&lm] > y[i&rm])
		}
	case ">=":
		for i := range out {
			out[i] = b2i(!(x[i&lm] < y[i&rm]))
		}
	case ">":
		for i := range out {
			out[i] = b2i(x[i&lm] > y[i&rm])
		}
	default:
		panic("exec: bad cmp op " + op)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// And is a boolean conjunction of any number of 0/1 int64 operands.
type And struct {
	Kids []Expr
	tmp  Vec
}

// NewAnd builds a conjunction.
func NewAnd(kids ...Expr) *And {
	for _, k := range kids {
		typeCheck(storage.Int64, k.Type(), "and operand")
	}
	return &And{Kids: kids}
}

// Type implements Expr.
func (*And) Type() storage.ColumnType { return storage.Int64 }

// Eval implements Expr: the first kid is evaluated straight into out and
// the others are folded in place.
func (a *And) Eval(b *Batch, out *Vec) {
	if len(a.Kids) == 0 {
		fillBool(out, b.N, 1)
		return
	}
	o := boolInto(a.Kids[0], b, out)
	for _, k := range a.Kids[1:] {
		t := operandVec(k, b, &a.tmp).I64[:len(o)]
		for i := range o {
			o[i] &= b2i(t[i] != 0)
		}
	}
}

// Or is a boolean disjunction.
type Or struct {
	Kids []Expr
	tmp  Vec
}

// NewOr builds a disjunction.
func NewOr(kids ...Expr) *Or {
	for _, k := range kids {
		typeCheck(storage.Int64, k.Type(), "or operand")
	}
	return &Or{Kids: kids}
}

// Type implements Expr.
func (*Or) Type() storage.ColumnType { return storage.Int64 }

// Eval implements Expr: the first kid is evaluated straight into out and
// the others are folded in place.
func (o *Or) Eval(b *Batch, out *Vec) {
	if len(o.Kids) == 0 {
		fillBool(out, b.N, 0)
		return
	}
	v := boolInto(o.Kids[0], b, out)
	for _, k := range o.Kids[1:] {
		t := operandVec(k, b, &o.tmp).I64[:len(v)]
		for i := range v {
			v[i] |= b2i(t[i] != 0)
		}
	}
}

// boolInto evaluates e into out, normalizes it to 0/1 and returns the
// values.
func boolInto(e Expr, b *Batch, out *Vec) []int64 {
	e.Eval(b, out)
	o := out.I64
	for i, v := range o {
		o[i] = b2i(v != 0)
	}
	return o
}

// fillBool sets out to n copies of v.
func fillBool(out *Vec, n int, v int64) {
	out.Reset()
	out.T = storage.Int64
	out.I64 = resize(out.I64, n)
	for i := range out.I64 {
		out.I64[i] = v
	}
}

// StrEq tests string column equality against a constant.
type StrEq struct {
	Col int
	Val string
}

// Type implements Expr.
func (StrEq) Type() storage.ColumnType { return storage.Int64 }

// Eval implements Expr.
func (s StrEq) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Int64
	for _, v := range b.Vecs[s.Col].Str {
		if v == s.Val {
			out.I64 = append(out.I64, 1)
		} else {
			out.I64 = append(out.I64, 0)
		}
	}
}

// StrPrefix tests whether a string column starts with a constant prefix
// (stand-in for TPC-H LIKE 'x%' predicates).
type StrPrefix struct {
	Col    int
	Prefix string
}

// Type implements Expr.
func (StrPrefix) Type() storage.ColumnType { return storage.Int64 }

// Eval implements Expr.
func (s StrPrefix) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Int64
	for _, v := range b.Vecs[s.Col].Str {
		if strings.HasPrefix(v, s.Prefix) {
			out.I64 = append(out.I64, 1)
		} else {
			out.I64 = append(out.I64, 0)
		}
	}
}

// StrContains tests substring containment (stand-in for LIKE '%x%').
type StrContains struct {
	Col int
	Sub string
}

// Type implements Expr.
func (StrContains) Type() storage.ColumnType { return storage.Int64 }

// Eval implements Expr.
func (s StrContains) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Int64
	for _, v := range b.Vecs[s.Col].Str {
		if strings.Contains(v, s.Sub) {
			out.I64 = append(out.I64, 1)
		} else {
			out.I64 = append(out.I64, 0)
		}
	}
}

// InI64 tests membership of an int64 column in a constant set.
type InI64 struct {
	Expr Expr
	Set  map[int64]bool
	tmp  Vec
}

// Type implements Expr.
func (*InI64) Type() storage.ColumnType { return storage.Int64 }

// Eval implements Expr.
func (s *InI64) Eval(b *Batch, out *Vec) {
	in := operandVec(s.Expr, b, &s.tmp)
	out.Reset()
	out.T = storage.Int64
	for _, v := range in.I64 {
		if s.Set[v] {
			out.I64 = append(out.I64, 1)
		} else {
			out.I64 = append(out.I64, 0)
		}
	}
}

// InStr tests membership of a string column in a constant set.
type InStr struct {
	Col int
	Set map[string]bool
}

// Type implements Expr.
func (InStr) Type() storage.ColumnType { return storage.Int64 }

// Eval implements Expr.
func (s InStr) Eval(b *Batch, out *Vec) {
	out.Reset()
	out.T = storage.Int64
	for _, v := range b.Vecs[s.Col].Str {
		if s.Set[v] {
			out.I64 = append(out.I64, 1)
		} else {
			out.I64 = append(out.I64, 0)
		}
	}
}

// Between is lo <= e <= hi for int64 expressions (dates, keys).
func Between(e Expr, lo, hi int64) Expr {
	return NewAnd(NewCmp(">=", e, ConstI(lo)), NewCmp("<=", e, ConstI(hi)))
}
