// Package bitvec implements truth tables as bit vectors over up to 16
// variables. A truth table for k variables stores 2^k bits packed into
// 64-bit words; bit i holds the function value on the input minterm whose
// binary encoding is i (variable 0 is the least significant input).
//
// The package provides the primitives needed by cut-based logic
// resynthesis: variable truth tables, Boolean operations, Shannon
// cofactors, support detection, and canonical hashing. It mirrors the
// role of ABC's "kit" truth-table utilities.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxVars is the largest supported number of truth-table variables.
const MaxVars = 16

// TT is a truth table over a fixed number of variables. The zero value is
// not usable; construct with New, Const, or Var.
type TT struct {
	nvars int
	w     []uint64
}

// wordsFor returns the number of 64-bit words needed for k variables.
func wordsFor(k int) int {
	if k <= 6 {
		return 1
	}
	return 1 << (k - 6)
}

// usedMask returns the mask of meaningful bits in the single word of a
// table with k <= 6 variables.
func usedMask(k int) uint64 {
	if k >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << k)) - 1
}

// New returns the constant-0 truth table over nvars variables.
func New(nvars int) TT {
	if nvars < 0 || nvars > MaxVars {
		panic(fmt.Sprintf("bitvec: invalid variable count %d", nvars))
	}
	return TT{nvars: nvars, w: make([]uint64, wordsFor(nvars))}
}

// Const returns the constant-0 or constant-1 table over nvars variables.
func Const(nvars int, v bool) TT {
	t := New(nvars)
	if v {
		for i := range t.w {
			t.w[i] = ^uint64(0)
		}
		t.mask()
	}
	return t
}

// varPattern holds the repeating bit patterns of the first six variables.
var varPattern = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// Var returns the projection function x_i over nvars variables.
func Var(nvars, i int) TT {
	if i < 0 || i >= nvars {
		panic(fmt.Sprintf("bitvec: variable %d out of range for %d vars", i, nvars))
	}
	t := New(nvars)
	if i < 6 {
		for j := range t.w {
			t.w[j] = varPattern[i]
		}
	} else {
		// Variable i toggles in blocks of 2^(i-6) words.
		block := 1 << (i - 6)
		for j := range t.w {
			if j&block != 0 {
				t.w[j] = ^uint64(0)
			}
		}
	}
	t.mask()
	return t
}

// mask clears the unused high bits for tables with fewer than 6 variables.
func (t *TT) mask() {
	if t.nvars < 6 {
		t.w[0] &= usedMask(t.nvars)
	}
}

// NumVars returns the number of variables of t.
func (t TT) NumVars() int { return t.nvars }

// NumBits returns the number of minterms (2^nvars).
func (t TT) NumBits() int { return 1 << t.nvars }

// Clone returns an independent copy of t.
func (t TT) Clone() TT {
	c := TT{nvars: t.nvars, w: make([]uint64, len(t.w))}
	copy(c.w, t.w)
	return c
}

// Bit reports the value of the function on minterm i.
func (t TT) Bit(i int) bool {
	return t.w[i>>6]&(1<<(uint(i)&63)) != 0
}

// SetBit sets the value of the function on minterm i.
func (t *TT) SetBit(i int, v bool) {
	if v {
		t.w[i>>6] |= 1 << (uint(i) & 63)
	} else {
		t.w[i>>6] &^= 1 << (uint(i) & 63)
	}
}

func checkSame(a, b TT) {
	if a.nvars != b.nvars {
		panic(fmt.Sprintf("bitvec: mismatched variable counts %d vs %d", a.nvars, b.nvars))
	}
}

// And returns a AND b.
func And(a, b TT) TT {
	checkSame(a, b)
	t := New(a.nvars)
	for i := range t.w {
		t.w[i] = a.w[i] & b.w[i]
	}
	return t
}

// Or returns a OR b.
func Or(a, b TT) TT {
	checkSame(a, b)
	t := New(a.nvars)
	for i := range t.w {
		t.w[i] = a.w[i] | b.w[i]
	}
	return t
}

// Xor returns a XOR b.
func Xor(a, b TT) TT {
	checkSame(a, b)
	t := New(a.nvars)
	for i := range t.w {
		t.w[i] = a.w[i] ^ b.w[i]
	}
	return t
}

// Not returns the complement of a.
func Not(a TT) TT {
	t := New(a.nvars)
	for i := range t.w {
		t.w[i] = ^a.w[i]
	}
	t.mask()
	return t
}

// AndNot returns a AND NOT b.
func AndNot(a, b TT) TT {
	checkSame(a, b)
	t := New(a.nvars)
	for i := range t.w {
		t.w[i] = a.w[i] &^ b.w[i]
	}
	return t
}

// Mux returns s ? a : b (a when s is 1).
func Mux(s, a, b TT) TT {
	checkSame(s, a)
	checkSame(a, b)
	t := New(a.nvars)
	for i := range t.w {
		t.w[i] = (s.w[i] & a.w[i]) | (^s.w[i] & b.w[i])
	}
	t.mask()
	return t
}

// Equal reports whether a and b are the same function.
func Equal(a, b TT) bool {
	if a.nvars != b.nvars {
		return false
	}
	for i := range a.w {
		if a.w[i] != b.w[i] {
			return false
		}
	}
	return true
}

// IsConst0 reports whether t is the constant-0 function.
func (t TT) IsConst0() bool {
	for _, w := range t.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsConst1 reports whether t is the constant-1 function.
func (t TT) IsConst1() bool {
	if t.nvars < 6 {
		return t.w[0] == usedMask(t.nvars)
	}
	for _, w := range t.w {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// CountOnes returns the number of satisfying minterms.
func (t TT) CountOnes() int {
	n := 0
	for _, w := range t.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Cofactor0 returns the negative Shannon cofactor with respect to
// variable v, expanded back to the full variable set (the result does not
// depend on v).
func Cofactor0(t TT, v int) TT {
	r := t.Clone()
	if v < 6 {
		shift := uint(1) << uint(v)
		maskLo := ^varPattern[v]
		for i := range r.w {
			lo := r.w[i] & maskLo
			r.w[i] = lo | lo<<shift
		}
	} else {
		block := 1 << (v - 6)
		for i := 0; i < len(r.w); i += 2 * block {
			for j := 0; j < block; j++ {
				r.w[i+block+j] = r.w[i+j]
			}
		}
	}
	return r
}

// Cofactor1 returns the positive Shannon cofactor with respect to
// variable v, expanded back to the full variable set.
func Cofactor1(t TT, v int) TT {
	r := t.Clone()
	if v < 6 {
		shift := uint(1) << uint(v)
		maskHi := varPattern[v]
		for i := range r.w {
			hi := r.w[i] & maskHi
			r.w[i] = hi | hi>>shift
		}
	} else {
		block := 1 << (v - 6)
		for i := 0; i < len(r.w); i += 2 * block {
			for j := 0; j < block; j++ {
				r.w[i+j] = r.w[i+block+j]
			}
		}
	}
	return r
}

// DependsOn reports whether the function depends on variable v. It is
// allocation-free (hot path of ISOP's splitting-variable search).
func (t TT) DependsOn(v int) bool {
	if v >= t.nvars {
		return false
	}
	if v < 6 {
		shift := uint(1) << uint(v)
		lowHalf := ^varPattern[v]
		if t.nvars < 6 {
			lowHalf &= usedMask(t.nvars)
		}
		for _, w := range t.w {
			if ((w>>shift)^w)&lowHalf != 0 {
				return true
			}
		}
		return false
	}
	block := 1 << (v - 6)
	for i := 0; i < len(t.w); i += 2 * block {
		for j := 0; j < block; j++ {
			if t.w[i+j] != t.w[i+block+j] {
				return true
			}
		}
	}
	return false
}

// Support returns the indices of variables the function depends on.
func (t TT) Support() []int {
	var s []int
	for v := 0; v < t.nvars; v++ {
		if t.DependsOn(v) {
			s = append(s, v)
		}
	}
	return s
}

// SupportSize returns the number of variables in the support.
func (t TT) SupportSize() int { return len(t.Support()) }

// Expand returns the same function over a larger variable set. Variable i
// of t maps to variable perm[i] of the result.
func Expand(t TT, nvars int, perm []int) TT {
	if len(perm) != t.nvars {
		panic("bitvec: Expand permutation length mismatch")
	}
	r := New(nvars)
	free := make([]int, 0, nvars-t.nvars)
	used := make([]bool, nvars)
	for _, p := range perm {
		used[p] = true
	}
	for v := 0; v < nvars; v++ {
		if !used[v] {
			free = append(free, v)
		}
	}
	n := t.NumBits()
	for i := 0; i < n; i++ {
		if !t.Bit(i) {
			continue
		}
		// Minterm i of t corresponds to a cube of minterms of r where
		// mapped variables are fixed and others are free. Enumerate by
		// iterating all minterms of r is exponential; instead build the
		// base index and fill free-variable combinations.
		base := 0
		for v := 0; v < t.nvars; v++ {
			if i&(1<<uint(v)) != 0 {
				base |= 1 << uint(perm[v])
			}
		}
		for c := 0; c < 1<<uint(len(free)); c++ {
			idx := base
			for b, v := range free {
				if c&(1<<uint(b)) != 0 {
					idx |= 1 << uint(v)
				}
			}
			r.SetBit(idx, true)
		}
	}
	return r
}

// Shrink returns the function of t restricted to the variables in vars
// (which must be a superset of the support). Variable vars[i] of t becomes
// variable i of the result.
func Shrink(t TT, vars []int) TT {
	r := New(len(vars))
	n := r.NumBits()
	for i := 0; i < n; i++ {
		idx := 0
		for b, v := range vars {
			if i&(1<<uint(b)) != 0 {
				idx |= 1 << uint(v)
			}
		}
		// Other variables are don't-cares (not in support): read with 0.
		if t.Bit(idx) {
			r.SetBit(i, true)
		}
	}
	return r
}

// Hash returns a 64-bit FNV-1a hash of the function, suitable for
// hash-consing truth tables of equal variable counts.
func (t TT) Hash() uint64 {
	const offset = 1469598103934665603
	const prime = 1099511628211
	h := uint64(offset)
	h = (h ^ uint64(t.nvars)) * prime
	for _, w := range t.w {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (w >> uint(s) & 0xff)) * prime
		}
	}
	return h
}

// Words returns the backing words of t. The slice must not be modified.
func (t TT) Words() []uint64 { return t.w }

// WordsFor returns the number of 64-bit words a table over nvars
// variables occupies.
func WordsFor(nvars int) int { return wordsFor(nvars) }

// FromWords returns the table over nvars variables backed by w, which is
// not copied: t aliases w until either is modified. len(w) must be
// WordsFor(nvars). For fewer than 6 variables the unused high bits of
// w[0] are cleared in place. Kernels that keep tables in their own
// scratch use it to hand out a TT without allocating.
func FromWords(nvars int, w []uint64) TT {
	if nvars < 0 || nvars > MaxVars || len(w) != wordsFor(nvars) {
		panic(fmt.Sprintf("bitvec: %d words for %d variables", len(w), nvars))
	}
	t := TT{nvars: nvars, w: w}
	t.mask()
	return t
}

// VarWord returns the one-word pattern of variable i < 6: bit m is set
// iff bit i of minterm m is.
func VarWord(i int) uint64 { return varPattern[i] }

// Replicate spreads a one-word table over nvars < 6 variables (its
// meaningful low 2^nvars bits) across all 64 bits, giving the same
// function over 6 variables, none of the added ones in its support.
func Replicate(w uint64, nvars int) uint64 {
	w &= usedMask(nvars)
	for k := nvars; k < 6; k++ {
		w |= w << (uint(1) << uint(k))
	}
	return w
}

// StretchWord moves variable i of the one-word table w to variable
// perm[i]. The table must depend only on variables 0..len(perm)-1, and
// perm must be strictly increasing with perm[i] >= i and every entry
// below 6; the result depends only on the variables in perm. It is the
// word-level form of Expand for cut enumeration, where a child cut's
// leaves keep their order inside the merged leaf set.
func StretchWord(w uint64, perm []int) uint64 {
	for i := len(perm) - 1; i >= 0; i-- {
		j := perm[i]
		if j == i {
			continue
		}
		// Variable j is outside the support here, so swapping i and j
		// moves the dependence: exchange the minterms with x_i=1, x_j=0
		// and their partners with x_i=0, x_j=1.
		shift := uint(1)<<uint(j) - uint(1)<<uint(i)
		d := (w ^ w>>shift) & varPattern[i] &^ varPattern[j]
		w ^= d | d<<shift
	}
	return w
}

// String renders the truth table as a hex string, most significant word
// first, e.g. "0x8" for AND over 2 variables.
func (t TT) String() string {
	var b strings.Builder
	b.WriteString("0x")
	digits := (t.NumBits() + 3) / 4
	if digits == 0 {
		digits = 1
	}
	buf := make([]byte, 0, digits)
	for i := digits - 1; i >= 0; i-- {
		nib := (t.w[(i*4)>>6] >> uint((i*4)&63)) & 0xF
		buf = append(buf, "0123456789abcdef"[nib])
	}
	b.Write(buf)
	return b.String()
}
