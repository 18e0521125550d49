package server

import (
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/storage"
)

// scanColumns is the column list of a "scan" query's rows.
var scanColumns = []string{
	"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
	"l_discount", "l_tax", "l_shipdate",
}

// benchBatches is the number of full batches one benchmark op encodes.
const benchBatches = 8

// lineitemBatches cuts the first benchBatches*VectorSize lineitem rows of
// the shared test database into scan-schema batches: the traffic a
// "scan" request streams.
func lineitemBatches() ([]storage.ColumnType, []*exec.Batch) {
	snap := db().Snapshot("lineitem")
	schema := make([]storage.ColumnType, len(scanColumns))
	cols := make([]int, len(scanColumns))
	for j, name := range scanColumns {
		cols[j] = db().Col("lineitem", name)
		schema[j] = snap.Table().Schema[cols[j]].Type
	}
	var out []*exec.Batch
	for k := 0; k < benchBatches; k++ {
		lo, hi := int64(k*exec.VectorSize), int64((k+1)*exec.VectorSize)
		b := exec.NewBatch(schema)
		for j, v := range b.Vecs {
			switch schema[j] {
			case storage.Int64:
				v.I64 = snap.ReadInt64(cols[j], lo, hi, v.I64)
			case storage.Float64:
				v.F64 = snap.ReadFloat64(cols[j], lo, hi, v.F64)
			default:
				v.Str = snap.ReadString(cols[j], lo, hi, v.Str)
			}
		}
		b.N = exec.VectorSize
		out = append(out, b)
	}
	return schema, out
}

// noncentBatches replaces the float columns of the scan batches with
// random values that are not whole cents, so every float takes the
// strconv fallback.
func noncentBatches() ([]storage.ColumnType, []*exec.Batch) {
	schema, batches := lineitemBatches()
	rng := rand.New(rand.NewSource(1))
	for _, b := range batches {
		for j, v := range b.Vecs {
			if schema[j] != storage.Float64 {
				continue
			}
			for i := range v.F64 {
				v.F64[i] = rng.NormFloat64() * 1e4
			}
		}
	}
	return schema, batches
}

var encodeSink int

// BenchmarkEncodeBatch encodes benchBatches full batches per op and
// reports rows/s; MB/s counts the NDJSON bytes written.
func BenchmarkEncodeBatch(b *testing.B) {
	for _, c := range []struct {
		name  string
		input func() ([]storage.ColumnType, []*exec.Batch)
	}{
		{"lineitem-scan", lineitemBatches},
		{"noncent-floats", noncentBatches},
	} {
		b.Run(c.name, func(b *testing.B) {
			schema, batches := c.input()
			var size int64
			for _, batch := range batches {
				size += int64(len(encodeBatch(schema, batch)))
			}
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, batch := range batches {
					encodeSink += len(encodeBatch(schema, batch))
				}
			}
			rows := float64(benchBatches * exec.VectorSize)
			b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
