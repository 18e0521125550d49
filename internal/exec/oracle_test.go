package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/storage"
)

// This file checks the vectorized HashAggr, HashJoin and Select against
// row-at-a-time reference implementations of the same semantics over
// random multi-batch inputs: identical rows, identical order, identical
// batch boundaries and bitwise-equal floats.

// oracleTypes is the schema of every random input: two int columns, two
// float columns and a string column.
var oracleTypes = []storage.ColumnType{storage.Int64, storage.Int64, storage.Float64, storage.Float64, storage.String}

// randomSource builds nb batches of 1..VectorSize rows. Column 0 and the
// string column draw from small domains (group and join keys, with
// duplicates, "|" inside strings and the empty string); column 2 mixes
// -0.0, 0, two NaN bit patterns and a few values, column 3 is
// wide-ranging so float sums depend on their order.
func randomSource(rng *rand.Rand, nb int) *memSource {
	strs := []string{"", "a", "b", "a|", "|b", "|", "ab", "b|a"}
	floats := []float64{math.Copysign(0, -1), 0, 1.5, -2.25, 3, math.NaN(), math.Float64frombits(0xfff8000000000001)}
	m := &memSource{types: oracleTypes}
	for k := 0; k < nb; k++ {
		b := NewBatch(oracleTypes)
		b.N = 1 + rng.Intn(VectorSize)
		if rng.Intn(3) == 0 {
			b.N = 1 + rng.Intn(8)
		}
		for i := 0; i < b.N; i++ {
			b.Vecs[0].I64 = append(b.Vecs[0].I64, int64(rng.Intn(12)-3))
			b.Vecs[1].I64 = append(b.Vecs[1].I64, rng.Int63n(2_000_000)-1_000_000)
			b.Vecs[2].F64 = append(b.Vecs[2].F64, floats[rng.Intn(len(floats))])
			b.Vecs[3].F64 = append(b.Vecs[3].F64, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(12)-4)))
			b.Vecs[4].Str = append(b.Vecs[4].Str, strs[rng.Intn(len(strs))])
		}
		m.batches = append(m.batches, b)
	}
	return m
}

// drainBatches runs op to completion, returning the size of every batch
// and all rows.
func drainBatches(op Operator) (sizes []int, all *Batch) {
	op.Open()
	defer op.Close()
	all = NewBatch(op.Schema())
	for b := op.Next(); b != nil; b = op.Next() {
		sizes = append(sizes, b.N)
		for c, v := range all.Vecs {
			v.appendVec(b.Vecs[c], b.N)
		}
		all.N += b.N
	}
	return sizes, all
}

// sameBatches reports the first difference between two results, with
// floats compared bit for bit.
func sameBatches(gotSizes, wantSizes []int, got, want *Batch) error {
	if fmt.Sprint(gotSizes) != fmt.Sprint(wantSizes) {
		return fmt.Errorf("batch sizes %v, want %v", gotSizes, wantSizes)
	}
	if got.N != want.N || len(got.Vecs) != len(want.Vecs) {
		return fmt.Errorf("%d rows x %d cols, want %d x %d", got.N, len(got.Vecs), want.N, len(want.Vecs))
	}
	for c, w := range want.Vecs {
		g := got.Vecs[c]
		if g.T != w.T || g.Len() != want.N {
			return fmt.Errorf("col %d: type %v len %d, want %v len %d", c, g.T, g.Len(), w.T, want.N)
		}
		for i := 0; i < want.N; i++ {
			switch w.T {
			case storage.Int64:
				if g.I64[i] != w.I64[i] {
					return fmt.Errorf("row %d col %d: %d, want %d", i, c, g.I64[i], w.I64[i])
				}
			case storage.Float64:
				if math.Float64bits(g.F64[i]) != math.Float64bits(w.F64[i]) {
					return fmt.Errorf("row %d col %d: %v, want %v", i, c, g.F64[i], w.F64[i])
				}
			case storage.String:
				if g.Str[i] != w.Str[i] {
					return fmt.Errorf("row %d col %d: %q, want %q", i, c, g.Str[i], w.Str[i])
				}
			}
		}
	}
	return nil
}

// refGroup accumulates one group row by row.
type refGroup struct {
	sums, mins, maxs    []float64
	isums, imins, imaxs []int64
	n                   int64
	rendered            string
	row                 []any
}

// refHashAggr is the row-at-a-time reference aggregation: groups are
// distinct value tuples (NaNs equal), emitted in order of their key
// rendered as "%d|", "%g|" or "s|" per group column, ties broken by first
// appearance, VectorSize groups per batch.
func refHashAggr(src *memSource, groups []int, aggs []AggSpec) ([]int, *Batch) {
	types := src.types
	byKey := map[string]*refGroup{}
	var order []*refGroup
	for _, in := range src.batches {
		for i := 0; i < in.N; i++ {
			var id, rendered strings.Builder
			var row []any
			for _, g := range groups {
				switch types[g] {
				case storage.Int64:
					v := in.Vecs[g].I64[i]
					fmt.Fprintf(&id, "%d|", v)
					fmt.Fprintf(&rendered, "%d|", v)
					row = append(row, v)
				case storage.Float64:
					v := in.Vecs[g].F64[i]
					fmt.Fprintf(&id, "%g|", v)
					fmt.Fprintf(&rendered, "%g|", v)
					row = append(row, v)
				case storage.String:
					v := in.Vecs[g].Str[i]
					fmt.Fprintf(&id, "%q|", v)
					rendered.WriteString(v + "|")
					row = append(row, v)
				}
			}
			st, ok := byKey[id.String()]
			if !ok {
				st = &refGroup{
					sums: make([]float64, len(aggs)), mins: make([]float64, len(aggs)), maxs: make([]float64, len(aggs)),
					isums: make([]int64, len(aggs)), imins: make([]int64, len(aggs)), imaxs: make([]int64, len(aggs)),
					rendered: rendered.String(), row: row,
				}
				byKey[id.String()] = st
				order = append(order, st)
			}
			for si, spec := range aggs {
				if spec.Kind == AggCount {
					continue
				}
				switch types[spec.Col] {
				case storage.Int64:
					v := in.Vecs[spec.Col].I64[i]
					st.isums[si] += v
					st.sums[si] += float64(v)
					if st.n == 0 || v < st.imins[si] {
						st.imins[si] = v
					}
					if st.n == 0 || v > st.imaxs[si] {
						st.imaxs[si] = v
					}
				case storage.Float64:
					v := in.Vecs[spec.Col].F64[i]
					st.sums[si] += v
					if st.n == 0 || v < st.mins[si] {
						st.mins[si] = v
					}
					if st.n == 0 || v > st.maxs[si] {
						st.maxs[si] = v
					}
				}
			}
			st.n++
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].rendered < order[j].rendered })
	agg := &HashAggr{Child: src, Groups: groups, Aggs: aggs}
	out := NewBatch(agg.Schema())
	var sizes []int
	for k, st := range order {
		if k%VectorSize == 0 {
			sizes = append(sizes, min(VectorSize, len(order)-k))
		}
		col := 0
		for _, v := range st.row {
			switch v := v.(type) {
			case int64:
				out.Vecs[col].I64 = append(out.Vecs[col].I64, v)
			case float64:
				out.Vecs[col].F64 = append(out.Vecs[col].F64, v)
			case string:
				out.Vecs[col].Str = append(out.Vecs[col].Str, v)
			}
			col++
		}
		for si, spec := range aggs {
			v := out.Vecs[col]
			switch {
			case spec.Kind == AggCount:
				v.I64 = append(v.I64, st.n)
			case spec.Kind == AggAvg:
				v.F64 = append(v.F64, st.sums[si]/float64(st.n))
			case v.T == storage.Int64 && spec.Kind == AggSum:
				v.I64 = append(v.I64, st.isums[si])
			case v.T == storage.Int64 && spec.Kind == AggMin:
				v.I64 = append(v.I64, st.imins[si])
			case v.T == storage.Int64:
				v.I64 = append(v.I64, st.imaxs[si])
			case spec.Kind == AggSum:
				v.F64 = append(v.F64, st.sums[si])
			case spec.Kind == AggMin:
				v.F64 = append(v.F64, st.mins[si])
			default:
				v.F64 = append(v.F64, st.maxs[si])
			}
			col++
		}
		out.N++
	}
	return sizes, out
}

// refHashJoin is the row-at-a-time reference join: for each probe row in
// order, every build row with an equal key in build order; one output
// batch per probe batch with a match.
func refHashJoin(build, probe *memSource, buildKey, probeKey int) ([]int, *Batch) {
	table := map[int64][][2]int{} // key -> (build batch, row) pairs
	for bi, b := range build.batches {
		for i := 0; i < b.N; i++ {
			k := b.Vecs[buildKey].I64[i]
			table[k] = append(table[k], [2]int{bi, i})
		}
	}
	j := &HashJoin{Build: build, Probe: probe}
	out := NewBatch(j.Schema())
	var sizes []int
	np := len(probe.types)
	for _, in := range probe.batches {
		n := out.N
		for i := 0; i < in.N; i++ {
			for _, r := range table[in.Vecs[probeKey].I64[i]] {
				appendRow(out, 0, in, i)
				appendRow(out, np, build.batches[r[0]], r[1])
				out.N++
			}
		}
		if out.N > n {
			sizes = append(sizes, out.N-n)
		}
	}
	return sizes, out
}

// appendRow appends row i of src to the columns of out starting at col.
func appendRow(out *Batch, col int, src *Batch, i int) {
	for c, v := range src.Vecs {
		d := out.Vecs[col+c]
		switch v.T {
		case storage.Int64:
			d.I64 = append(d.I64, v.I64[i])
		case storage.Float64:
			d.F64 = append(d.F64, v.F64[i])
		case storage.String:
			d.Str = append(d.Str, v.Str[i])
		}
	}
}

// refValue is one scalar of the reference expression evaluator.
type refValue struct {
	i int64
	f float64
	s string
}

// refEval interprets e at row i of b one value at a time, with the
// historical semantics: comparisons are three-way (a NaN compares equal
// to everything) and booleans are 0/1.
func refEval(e Expr, b *Batch, i int) refValue {
	truth := func(ok bool) refValue {
		if ok {
			return refValue{i: 1}
		}
		return refValue{}
	}
	switch e := e.(type) {
	case Col:
		v := b.Vecs[e.Idx]
		switch v.T {
		case storage.Int64:
			return refValue{i: v.I64[i]}
		case storage.Float64:
			return refValue{f: v.F64[i]}
		default:
			return refValue{s: v.Str[i]}
		}
	case ConstI:
		return refValue{i: int64(e)}
	case ConstF:
		return refValue{f: float64(e)}
	case *Arith:
		l, r := refEval(e.L, b, i), refEval(e.R, b, i)
		if e.Type() == storage.Int64 {
			return refValue{i: map[string]int64{"+": l.i + r.i, "-": l.i - r.i, "*": l.i * r.i}[e.Op]}
		}
		return refValue{f: map[string]float64{"+": l.f + r.f, "-": l.f - r.f, "*": l.f * r.f, "/": l.f / r.f}[e.Op]}
	case *Cmp:
		l, r := refEval(e.L, b, i), refEval(e.R, b, i)
		var cm int
		switch e.L.Type() {
		case storage.Int64:
			cm = cmpOrdered(l.i, r.i)
		case storage.Float64:
			cm = cmpOrdered(l.f, r.f)
		default:
			cm = strings.Compare(l.s, r.s)
		}
		return truth(map[string]bool{"<": cm < 0, "<=": cm <= 0, "==": cm == 0, "!=": cm != 0, ">=": cm >= 0, ">": cm > 0}[e.Op])
	case *And:
		for _, k := range e.Kids {
			if refEval(k, b, i).i == 0 {
				return truth(false)
			}
		}
		return truth(true)
	case *Or:
		for _, k := range e.Kids {
			if refEval(k, b, i).i != 0 {
				return truth(true)
			}
		}
		return truth(false)
	case StrEq:
		return truth(b.Vecs[e.Col].Str[i] == e.Val)
	case *InI64:
		return truth(e.Set[refEval(e.Expr, b, i).i])
	}
	panic(fmt.Sprintf("refEval: unsupported %T", e))
}

// refSelect is the row-at-a-time reference filter: one output batch per
// input batch with a survivor.
func refSelect(src *memSource, pred Expr) ([]int, *Batch) {
	out := NewBatch(src.types)
	var sizes []int
	for _, in := range src.batches {
		n := out.N
		for i := 0; i < in.N; i++ {
			if refEval(pred, in, i).i != 0 {
				appendRow(out, 0, in, i)
				out.N++
			}
		}
		if out.N > n {
			sizes = append(sizes, out.N-n)
		}
	}
	return sizes, out
}

func TestOracleHashAggr(t *testing.T) {
	aggs := []AggSpec{
		{Kind: AggCount},
		{Kind: AggSum, Col: 1}, {Kind: AggAvg, Col: 1}, {Kind: AggMin, Col: 1}, {Kind: AggMax, Col: 1},
		{Kind: AggSum, Col: 3}, {Kind: AggAvg, Col: 3}, {Kind: AggMin, Col: 3}, {Kind: AggMax, Col: 3},
		{Kind: AggMin, Col: 2}, {Kind: AggMax, Col: 2}, {Kind: AggSum, Col: 2},
	}
	groupLists := [][]int{nil, {0}, {2}, {4}, {4, 0}, {0, 2, 4}, {4, 4}, {1}}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nb := rng.Intn(5)
		if trial == 0 {
			nb = 0 // empty input: no groups, not even the global one
		}
		src := randomSource(rng, nb)
		for _, groups := range groupLists {
			wantSizes, want := refHashAggr(src, groups, aggs)
			gotSizes, got := drainBatches(&HashAggr{Child: src, Groups: groups, Aggs: aggs})
			if err := sameBatches(gotSizes, wantSizes, got, want); err != nil {
				t.Fatalf("trial %d groups %v: %v", trial, groups, err)
			}
		}
	}
}

func TestOracleHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		build, probe := randomSource(rng, rng.Intn(4)), randomSource(rng, rng.Intn(4))
		for _, keys := range [][2]int{{0, 0}, {1, 1}, {0, 1}} {
			wantSizes, want := refHashJoin(build, probe, keys[0], keys[1])
			gotSizes, got := drainBatches(&HashJoin{Build: build, Probe: probe, BuildKey: keys[0], ProbeKey: keys[1]})
			if err := sameBatches(gotSizes, wantSizes, got, want); err != nil {
				t.Fatalf("trial %d keys %v: %v", trial, keys, err)
			}
		}
	}
}

func TestOracleSelect(t *testing.T) {
	i0, i1 := Col{0, storage.Int64}, Col{1, storage.Int64}
	f2, f3 := Col{2, storage.Float64}, Col{3, storage.Float64}
	s4 := Col{4, storage.String}
	var preds []Expr
	for _, op := range []string{"<", "<=", "==", "!=", ">=", ">"} {
		preds = append(preds,
			NewCmp(op, i0, ConstI(2)), NewCmp(op, ConstI(2), i0), NewCmp(op, i0, i1),
			NewCmp(op, f2, ConstF(0)), NewCmp(op, ConstF(1.5), f2), NewCmp(op, f2, f3),
			NewCmp(op, s4, Col{4, storage.String}), NewCmp(op, ConstI(1), ConstI(2)),
			NewCmp(op, NewArith("*", f3, ConstF(2)), NewArith("-", ConstF(1), f2)),
		)
	}
	preds = append(preds,
		NewCmp("<", i0, ConstI(-1000)), // all false
		NewAnd(), NewOr(), NewAnd(i0), NewOr(i0, NewCmp(">", f3, ConstF(1))),
		NewAnd(NewCmp(">=", i0, ConstI(0)), NewCmp("<", f3, ConstF(0)), StrEq{Col: 4, Val: "a|"}),
		NewOr(NewAnd(i0, StrEq{Col: 4, Val: ""}), NewCmp("==", NewArith("+", i0, ConstI(3)), ConstI(5))),
		Between(i1, -500_000, 500_000),
		&InI64{Expr: NewArith("-", i0, ConstI(1)), Set: map[int64]bool{0: true, 4: true}},
		NewCmp("<", NewArith("+", ConstF(1), ConstF(2)), f3),
	)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		src := randomSource(rng, rng.Intn(4))
		for pi, pred := range preds {
			wantSizes, want := refSelect(src, pred)
			gotSizes, got := drainBatches(&Select{Child: src, Pred: pred})
			if err := sameBatches(gotSizes, wantSizes, got, want); err != nil {
				t.Fatalf("trial %d pred %d (%T): %v", trial, pi, pred, err)
			}
		}
	}
}

// TestHashAggrStringKeysDoNotCollide is the regression test for the
// rendered-key collision: ("a|","b") and ("a","|b") render alike but are
// distinct groups, emitted in first-appearance order.
func TestHashAggrStringKeysDoNotCollide(t *testing.T) {
	types := []storage.ColumnType{storage.String, storage.String, storage.Int64}
	src := &memSource{types: types, batches: []*Batch{{N: 3, Vecs: []*Vec{
		{T: storage.String, Str: []string{"a", "a|", "a"}},
		{T: storage.String, Str: []string{"|b", "b", "|b"}},
		{T: storage.Int64, I64: []int64{1, 10, 100}},
	}}}}
	res := Collect(&HashAggr{Child: src, Groups: []int{0, 1}, Aggs: []AggSpec{{Kind: AggSum, Col: 2}, {Kind: AggCount}}})
	if res.N != 2 {
		t.Fatalf("groups = %d, want 2", res.N)
	}
	if res.Vecs[0].Str[0] != "a" || res.Vecs[1].Str[0] != "|b" || res.Vecs[2].I64[0] != 101 || res.Vecs[3].I64[0] != 2 {
		t.Fatalf("first group = (%q, %q) sum %d count %d, want (\"a\", \"|b\") 101 2",
			res.Vecs[0].Str[0], res.Vecs[1].Str[0], res.Vecs[2].I64[0], res.Vecs[3].I64[0])
	}
	if res.Vecs[0].Str[1] != "a|" || res.Vecs[1].Str[1] != "b" || res.Vecs[2].I64[1] != 10 || res.Vecs[3].I64[1] != 1 {
		t.Fatalf("second group = (%q, %q) sum %d count %d, want (\"a|\", \"b\") 10 1",
			res.Vecs[0].Str[1], res.Vecs[1].Str[1], res.Vecs[2].I64[1], res.Vecs[3].I64[1])
	}
}
