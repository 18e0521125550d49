package exec

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// memSource replays prebuilt batches; Open rewinds it, so one source can
// feed many runs of the operator above it.
type memSource struct {
	types   []storage.ColumnType
	batches []*Batch
	pos     int
}

func (m *memSource) Open()                        { m.pos = 0 }
func (m *memSource) Close()                       {}
func (m *memSource) Schema() []storage.ColumnType { return m.types }

func (m *memSource) Next() *Batch {
	if m.pos >= len(m.batches) {
		return nil
	}
	b := m.batches[m.pos]
	m.pos++
	return b
}

// newMemSource cuts n rows into VectorSize batches, filling column c of
// row i with fill[c](i).
func newMemSource(types []storage.ColumnType, n int, fill func(b *Batch, i int)) *memSource {
	m := &memSource{types: types}
	for lo := 0; lo < n; lo += VectorSize {
		b := NewBatch(types)
		for i := lo; i < min(n, lo+VectorSize); i++ {
			fill(b, i)
			b.N++
		}
		m.batches = append(m.batches, b)
	}
	return m
}

// benchRows is the input size of every layer benchmark.
const benchRows = 64 * VectorSize

var benchSink int64

// runOp drains a fresh operator from mk b.N times and reports tuples/s
// over tuples input rows per run.
func runOp(b *testing.B, tuples int, mk func() Operator) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += Drain(mk())
	}
	b.ReportMetric(float64(tuples)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// lineitemLike is a q1/q6-shaped input: returnflag, linestatus (low
// cardinality strings), quantity, extendedprice, discount (floats),
// shipdate (int days) and orderkey (sorted, about four rows per order).
func lineitemLike(n int) *memSource {
	types := []storage.ColumnType{storage.String, storage.String, storage.Float64,
		storage.Float64, storage.Float64, storage.Int64, storage.Int64}
	rng := rand.New(rand.NewSource(1))
	flags, status := []string{"A", "N", "R"}, []string{"F", "O"}
	return newMemSource(types, n, func(b *Batch, i int) {
		b.Vecs[0].Str = append(b.Vecs[0].Str, flags[rng.Intn(3)])
		b.Vecs[1].Str = append(b.Vecs[1].Str, status[rng.Intn(2)])
		b.Vecs[2].F64 = append(b.Vecs[2].F64, float64(1+rng.Intn(50)))
		b.Vecs[3].F64 = append(b.Vecs[3].F64, 900+rng.Float64()*100000)
		b.Vecs[4].F64 = append(b.Vecs[4].F64, float64(rng.Intn(11))/100)
		b.Vecs[5].I64 = append(b.Vecs[5].I64, int64(rng.Intn(2500)))
		b.Vecs[6].I64 = append(b.Vecs[6].I64, int64(i/4))
	})
}

func BenchmarkHashAggr(b *testing.B) {
	src := lineitemLike(benchRows)
	b.Run("q1-string-keys", func(b *testing.B) {
		runOp(b, benchRows, func() Operator {
			return &HashAggr{Child: src, Groups: []int{0, 1}, Aggs: []AggSpec{
				{Kind: AggSum, Col: 2}, {Kind: AggSum, Col: 3}, {Kind: AggAvg, Col: 2},
				{Kind: AggAvg, Col: 4}, {Kind: AggCount},
			}}
		})
	})
	b.Run("q18-int-keys", func(b *testing.B) {
		runOp(b, benchRows, func() Operator {
			return &HashAggr{Child: src, Groups: []int{6}, Aggs: []AggSpec{{Kind: AggSum, Col: 2}}}
		})
	})
}

func BenchmarkHashJoin(b *testing.B) {
	// A unique-key build side of benchRows/8 rows probed by benchRows
	// rows, half of which find a match.
	types := []storage.ColumnType{storage.Int64, storage.Float64}
	build := newMemSource(types, benchRows/8, func(b *Batch, i int) {
		b.Vecs[0].I64 = append(b.Vecs[0].I64, int64(2*i))
		b.Vecs[1].F64 = append(b.Vecs[1].F64, float64(i))
	})
	rng := rand.New(rand.NewSource(2))
	probe := newMemSource(types, benchRows, func(b *Batch, i int) {
		b.Vecs[0].I64 = append(b.Vecs[0].I64, int64(rng.Intn(benchRows/4)))
		b.Vecs[1].F64 = append(b.Vecs[1].F64, float64(i))
	})
	runOp(b, benchRows, func() Operator { return &HashJoin{Build: build, Probe: probe} })
}

func BenchmarkSelect(b *testing.B) {
	// q6's predicate: about 2% of rows survive.
	src := lineitemLike(benchRows)
	runOp(b, benchRows, func() Operator {
		return &Select{Child: src, Pred: NewAnd(
			Between(Col{5, storage.Int64}, 365, 729),
			NewCmp(">=", Col{4, storage.Float64}, ConstF(0.05)),
			NewCmp("<=", Col{4, storage.Float64}, ConstF(0.07)),
			NewCmp("<", Col{2, storage.Float64}, ConstF(24)),
		)}
	})
}

func BenchmarkCmpConst(b *testing.B) {
	src := lineitemLike(benchRows)
	cmp := NewCmp("<=", Col{5, storage.Int64}, ConstI(2410))
	var out Vec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range src.batches {
			cmp.Eval(in, &out)
			benchSink += out.I64[0]
		}
	}
	b.ReportMetric(float64(benchRows)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}
