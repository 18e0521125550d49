package server

import (
	"math"
	"strconv"

	"repro/internal/exec"
	"repro/internal/storage"
)

// colWidth estimates one encoded column, separator included, to size
// each batch's buffer once. With '[' and '\n' a lineitem scan row is
// estimated at 44 bytes; one such as ["N","O",16,17024,0.1,0.03,1835]
// is at most 34 with the generator's values, so the buffer never
// regrows mid-batch.
const colWidth = 6

// encodeBatch renders a batch as NDJSON rows: one JSON array per row.
// The bytes are exactly those of strconv.AppendInt, AppendFloat(…, 'g',
// -1, 64) and AppendQuote; appendFloat and appendQuote only reach them
// faster for the values scans actually carry.
func encodeBatch(schema []storage.ColumnType, b *exec.Batch) []byte {
	out := make([]byte, 0, b.N*(2+colWidth*len(b.Vecs)))
	for i := 0; i < b.N; i++ {
		out = append(out, '[')
		for j, v := range b.Vecs {
			if j > 0 {
				out = append(out, ',')
			}
			switch schema[j] {
			case storage.Int64:
				out = strconv.AppendInt(out, v.I64[i], 10)
			case storage.Float64:
				out = appendFloat(out, v.F64[i])
			default:
				out = appendQuote(out, v.Str[i])
			}
		}
		out = append(out, ']', '\n')
	}
	return out
}

// appendFloat appends f exactly as strconv.AppendFloat(dst, f, 'g', -1,
// 64) does. A whole number of cents below 1e6 in magnitude is written
// straight from its integer cent count c, skipping the shortest-digit
// search. That is exact:
//   - f is c/100 correctly rounded, so the decimal c/100 parses back
//     to f;
//   - below 1e6 a float64's rounding interval is narrower than
//     1.2e-10, so every other decimal that parses to f differs from
//     c/100 below the tenth fractional digit and is longer: c/100 is
//     the shortest;
//   - for 0.01 <= |f| < 1e6 the decimal exponent is in [-2, 5], where
//     'g' picks the %f form.
//
// ±0 (c == 0) prints "0" or "-0" as strconv does. Everything else (NaN,
// ±Inf, finer fractions, |f| >= 1e6) takes strconv.
func appendFloat(dst []byte, f float64) []byte {
	c := math.Round(f * 100)
	if !(math.Abs(c) < 1e8 && c/100 == f) {
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	if math.Signbit(f) {
		dst = append(dst, '-')
	}
	cents := uint64(math.Abs(c))
	dst = strconv.AppendUint(dst, cents/100, 10)
	switch frac := cents % 100; {
	case frac == 0:
	case frac%10 == 0:
		dst = append(dst, '.', byte('0'+frac/10))
	default:
		dst = append(dst, '.', byte('0'+frac/10), byte('0'+frac%10))
	}
	return dst
}

// appendQuote appends s exactly as strconv.AppendQuote(dst, s) does.
// Printable ASCII with no '"' or '\\' is copied between quotes as is;
// any other string takes strconv.
func appendQuote(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
