// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// eiselLemire64 is adapted from Go's strconv/eisel_lemire.go. The power
// table differs: it is computed once with math/big over a bounded exponent
// range instead of being listed.

package kpi

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// The power table covers 10^pow10MinExp through 10^pow10MaxExp; a number
// whose decimal exponent falls outside is left to strconv.
const (
	pow10MinExp = -64
	pow10MaxExp = 64
)

// pow10Mant holds, for each power of ten in range, its 128-bit mantissa
// rounded down: the top 128 bits of 10^e, as {low, high} words. The
// binary exponent is implied by Eisel–Lemire's linear estimate.
var pow10Mant = pow10Table(pow10MinExp, pow10MaxExp)

// pow10Table computes the mantissas of 10^lo through 10^hi.
func pow10Table(lo, hi int) [][2]uint64 {
	out := make([][2]uint64, 0, hi-lo+1)
	for e := lo; e <= hi; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		m := new(big.Int)
		switch n := p.BitLen(); {
		case e < 0:
			// floor(2^(127+n) / 10^-e) lies in (2^127, 2^128): 10^-e is no
			// power of two.
			m.Quo(m.Lsh(big.NewInt(1), uint(127+n)), p)
		case n <= 128:
			m.Lsh(p, uint(128-n))
		default:
			m.Rsh(p, uint(n-128))
		}
		var b [16]byte
		m.FillBytes(b[:])
		out = append(out, [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])})
	}
	return out
}

// eiselLemire64 returns man·10^exp10, negated if neg, correctly rounded, or
// false when the algorithm cannot decide the rounding (or the result is
// subnormal, infinite or outside the table) and a slower path must.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// The terse comments follow the sections of
	// https://nigeltao.github.io/blog/2020/eisel-lemire.html.

	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < pow10MinExp || pow10MaxExp < exp10 {
		return 0, false
	}
	pow := &pow10Mant[exp10-pow10MinExp]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64: zero or underflow is subnormal float64 space,
	// 0x7FF or above Inf/NaN space. The one comparison covers both.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
