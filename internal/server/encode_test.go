package server

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// encCheck compares the fast encoders with strconv, reusing its buffers
// so a check costs little more than the two encodings.
type encCheck struct{ got, want []byte }

// float fails t unless appendFloat writes f exactly as strconv.
func (c *encCheck) float(t testing.TB, f float64) {
	c.want = strconv.AppendFloat(c.want[:0], f, 'g', -1, 64)
	if c.got = appendFloat(c.got[:0], f); !bytes.Equal(c.got, c.want) {
		t.Helper()
		t.Fatalf("appendFloat(%#x) = %q, strconv writes %q", math.Float64bits(f), c.got, c.want)
	}
}

// quote fails t unless appendQuote writes s exactly as strconv.
func (c *encCheck) quote(t testing.TB, s string) {
	c.want = strconv.AppendQuote(c.want[:0], s)
	if c.got = appendQuote(c.got[:0], s); !bytes.Equal(c.got, c.want) {
		t.Helper()
		t.Fatalf("appendQuote(%q) = %s, strconv writes %s", s, c.got, c.want)
	}
}

func TestAppendFloatMatchesStrconv(t *testing.T) {
	var c encCheck
	t.Run("edges", func(t *testing.T) {
		for _, f := range []float64{
			0, math.Copysign(0, -1), 1, -1, 0.01, -0.01, 0.1, 0.005, -0.005, 0.015,
			999999.99, -999999.99, 1e6 - 0.01, -(1e6 - 0.01), 1e6, -1e6, 1e6 + 0.01,
			99999.99, 100000, 123456.7, 0.1 + 0.2, 1.0 / 3, 2.675, 1e-5, 1e21,
			math.NaN(), math.Inf(1), math.Inf(-1),
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300,
			math.Nextafter(0.07, 1), math.Nextafter(0.07, 0),
			math.Nextafter(999999.99, 0), math.Nextafter(1e6, 0),
		} {
			c.float(t, f)
		}
	})
	t.Run("every-cent", func(t *testing.T) {
		// ±30 000.00 in full; ±2 000.00 under -short.
		limit := int64(3_000_000)
		if testing.Short() {
			limit = 200_000
		}
		for cents := -limit; cents <= limit; cents++ {
			c.float(t, float64(cents)/100)
		}
	})
	t.Run("random-cents", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200_000; i++ {
			c.float(t, float64(rng.Int63n(2e8)-1e8)/100)
		}
	})
	t.Run("random-bits", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 1_000_000; i++ {
			c.float(t, math.Float64frombits(rng.Uint64()))
		}
	})
}

func TestAppendQuoteMatchesStrconv(t *testing.T) {
	var c encCheck
	for _, s := range []string{
		"", "N", "U", " ", "~", "hello, world", `"`, `\`, `a"b`, `a\b`,
		"\x00", "\t", "\n", "\r", "\x1f", "\x7f", "a\x7fb",
		"é", "日本語", "\u00a0", "\U0001F600", "\ufeff", "\u2028",
		"\xff", "\xc3", "a\xc3(b", "\xed\xa0\x80",
	} {
		c.quote(t, s)
	}
	// Every single byte, alone and inside plain text.
	for b := 0; b < 256; b++ {
		c.quote(t, string([]byte{byte(b)}))
		c.quote(t, "ab"+string([]byte{byte(b)})+"cd")
	}
}

// The fuzz targets' seed corpora are in testdata/fuzz.

func FuzzAppendFloat(f *testing.F) {
	var c encCheck
	f.Fuzz(func(t *testing.T, bits uint64) {
		c.float(t, math.Float64frombits(bits))
	})
}

func FuzzAppendQuote(f *testing.F) {
	var c encCheck
	f.Fuzz(func(t *testing.T, s string) {
		c.quote(t, s)
	})
}
