package kpi

import (
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"
)

// referenceNumber is the grammar-only scanner the number scanner replaced,
// kept as its oracle: it consumes a number token without reading a value.
func (d *wireDecoder) referenceNumber() error {
	b, i := d.buf, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	default:
		d.pos = i
		return d.mismatch("a digit")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			d.pos = i
			return d.mismatch("a digit after the decimal point")
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			d.pos = i
			return d.mismatch("a digit in the exponent")
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	d.pos = i
	return nil
}

// referenceFloat is the float decode the number scanner replaced: the
// grammar check, then strconv.ParseFloat on the token.
func (d *wireDecoder) referenceFloat(f *float64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		start := d.pos
		if err := d.referenceNumber(); err != nil {
			return err
		}
		v, err := strconv.ParseFloat(string(d.buf[start:d.pos]), 64)
		if err != nil {
			return &wireError{msg: "number " + string(d.buf[start:d.pos]) + " does not fit a float64", off: start}
		}
		*f = v
		return nil
	}
	return d.mismatch("a number")
}

// checkNumber holds the float decode of data to the reference at a value
// position, and skip to the reference grammar: the same verdict, end
// offset, error text and float bits.
func checkNumber(t *testing.T, data []byte) {
	t.Helper()
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	const unset = 12345.678
	got, want := unset, unset
	d, ref := &wireDecoder{buf: data}, &wireDecoder{buf: data}
	gotErr, wantErr := d.float(&got), ref.referenceFloat(&want)
	if errText(gotErr) != errText(wantErr) || d.pos != ref.pos || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("float(%q) = %v (%016x), pos %d, err %v; reference %v (%016x), pos %d, err %v", data,
			got, math.Float64bits(got), d.pos, gotErr, want, math.Float64bits(want), ref.pos, wantErr)
	}
	if len(data) == 0 || data[0] != '-' && !isDigit(data[0]) {
		return
	}
	d, ref = &wireDecoder{buf: data}, &wireDecoder{buf: data}
	gotErr, wantErr = d.skip(), ref.referenceNumber()
	if errText(gotErr) != errText(wantErr) || d.pos != ref.pos {
		t.Fatalf("skip(%q): pos %d, err %v; reference pos %d, err %v", data, d.pos, gotErr, ref.pos, wantErr)
	}
}

// numberSeeds sit on each edge of the scanner: Clinger's bounds, the
// 19-digit mantissa, the power table's range, subnormals, overflow and
// every grammar error.
func numberSeeds() []string {
	seeds := []string{
		"9007199254740992", "9007199254740993", "-9007199254740993", "9007199254740992e22", "9007199254740993e-22",
		"1234567890123456789", "12345678901234567890", "1234567890123456789.5", "0.12345678901234567891",
		"10000000000000000000000", "1.0000000000000000000000001", "1.00000000000000000000000000",
		"123456789012345678900000e-5", "0.000000000000000000000000000000000000123456789012345678912",
		"1e22", "1e23", "-1e22", "8.98846567431158e307", "-0", "0", "-0.0", "0e5", "-0e999", "0.000e-99999999999",
		"4.9e-324", "5e-324", "2e-324", "1e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
		"2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
		"1e308", "1e309", "-1e309", "1e400", "1e-400",
		"1e99999999999", "-1e99999999999", "1e-99999999999", "1e0000000000000000000000000001",
		"1E5", "1e+5", "1e-5", "1E-0", "2.5E+10",
		"01", "1.", "-", "-.5", ".5", "+1", "1e", "1e+", "1E-", "1.e5", "--1", "-a", "", "1x", "1.5.5", "0x10",
		"null", "nul", "true", "\"1\"", "   7.25 ,", "3.3333333333333335", "0.1", "0.3", "1.5e3",
		"123.456", "-98765.4321e-3", "9999999999999999999", "99999999999999999999",
		"7.2057594037927933e16", "1.8014398509481984e16", "4503599627370497.5", "9007199254740991.5",
		// 2^53+1 lies halfway between two float64s: a nonzero digit past
		// the 19th breaks the tie upward.
		"9007199254740993.00001", "9007199254740993.000000000000001", "90071992547409930.1e-1", "9007199254740993000001e-6",
		// Halfway points past 19 digits, 1+2^-53 and 2^70+2^17: the first
		// 19 digits fall below them, so only a dropped digit rounds up.
		"1.00000000000000011102230246251565404236316680908203125",
		"1.000000000000000111022302462515654042363166809082031250001",
		"1180591620717411434496", "1180591620717411434497", "1180591620717411434496.01",
	}
	for _, e := range []int{pow10MinExp, pow10MaxExp} {
		for _, de := range []int{-1, 0, 1} {
			x := e + de
			seeds = append(seeds, "1e"+strconv.Itoa(x), "12345678901234567e"+strconv.Itoa(x-16),
				"9007199254740993e"+strconv.Itoa(x))
		}
	}
	return seeds
}

func TestWireNumberMatchesStrconv(t *testing.T) {
	for _, s := range numberSeeds() {
		checkNumber(t, []byte(s))
	}
	// Exponents past where the scanner stops accumulating, offset by
	// digit runs back into range.
	checkNumber(t, []byte("0."+strings.Repeat("0", 100000)+"1e1000000"))
	checkNumber(t, []byte("1"+strings.Repeat("0", 100000)+"e-1000000"))
	// A spread of full-precision values, as WriteJSON prints them.
	for e := -330; e <= 310; e++ {
		for _, m := range []float64{1, 1.2345678901234567, 3.3333333333333335, 9.999999999999998} {
			v := m * math.Pow(10, float64(e))
			for _, f := range []byte{'g', 'e', 'f'} {
				checkNumber(t, []byte(strconv.FormatFloat(v, f, -1, 64)))
			}
		}
	}
}

// FuzzWireNumberMatchesStrconv holds the one-pass number scanner to the
// grammar check plus strconv.ParseFloat it replaced, at a value position
// on arbitrary bytes.
func FuzzWireNumberMatchesStrconv(f *testing.F) {
	for _, s := range numberSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkNumber)
}

// TestPow10Table recomputes every mantissa of the power table with
// big.Float, by another route than the table's big.Int one, and pins the
// rows any two Eisel–Lemire tables share.
func TestPow10Table(t *testing.T) {
	if n := len(pow10Mant); n != pow10MaxExp-pow10MinExp+1 {
		t.Fatalf("%d rows, want %d", n, pow10MaxExp-pow10MinExp+1)
	}
	ten := new(big.Float).SetPrec(2048).SetInt64(10)
	for e := pow10MinExp; e <= pow10MaxExp; e++ {
		// 10^e to 2048 bits, rounded toward zero at every step: the error
		// stays far below the 128 bits kept.
		p := new(big.Float).SetPrec(2048).SetMode(big.ToZero).SetInt64(1)
		for i := 0; i < max(e, -e); i++ {
			if e > 0 {
				p.Mul(p, ten)
			} else {
				p.Quo(p, ten)
			}
		}
		mant := new(big.Float).SetPrec(2048)
		exp := p.MantExp(mant) // p = mant · 2^exp, mant in [0.5, 1)
		mant.SetMantExp(mant, 128)
		m, _ := mant.Int(nil)
		want := [2]uint64{new(big.Int).And(m, new(big.Int).SetUint64(math.MaxUint64)).Uint64(), new(big.Int).Rsh(m, 64).Uint64()}
		if got := pow10Mant[e-pow10MinExp]; got != want {
			t.Errorf("10^%d: %016x %016x, want %016x %016x", e, got[1], got[0], want[1], want[0])
		}
		// The binary exponent Eisel–Lemire implies is floor(log2 10^e).
		if got := 217706 * e >> 16; got != exp-1 {
			t.Errorf("10^%d: implied binary exponent %d, want %d", e, got, exp-1)
		}
	}
	for e, want := range map[int][2]uint64{
		-64: {0x3F2398D747B36224, 0xA87FEA27A539E9A5},
		-2:  {0x3D70A3D70A3D70A3, 0xA3D70A3D70A3D70A},
		-1:  {0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		0:   {0, 0x8000000000000000},
		9:   {0, 0xEE6B280000000000},
		43:  {0x6D9CCD05D0000000, 0xE596B7B0C643C719},
	} {
		if got := pow10Mant[e-pow10MinExp]; got != want {
			t.Errorf("10^%d: %016x %016x, want %016x %016x", e, got[1], got[0], want[1], want[0])
		}
	}
}

// TestEiselLemireMatchesStrconv runs every decimal exponent of the table
// with mantissas near each rounding edge through Eisel–Lemire directly.
func TestEiselLemireMatchesStrconv(t *testing.T) {
	mants := []uint64{1, 9, 12345678901234567, 1<<53 + 1, 1<<63 + 1, 9999999999999999999, 4503599627370497, 18014398509481985}
	for e := pow10MinExp; e <= pow10MaxExp; e++ {
		for _, m := range mants {
			for _, neg := range []bool{false, true} {
				s := strconv.FormatUint(m, 10) + "e" + strconv.Itoa(e)
				if neg {
					s = "-" + s
				}
				want, _ := strconv.ParseFloat(s, 64)
				if got, ok := eiselLemire64(m, e, neg); ok && math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: %v, want %v", s, got, want)
				}
			}
		}
	}
}
