// Package sop implements two-level (sum-of-products) logic manipulation:
// irredundant SOP extraction from truth tables via the Minato–Morreale
// algorithm, algebraic (literal) factoring, and construction of factored
// forms into AIGs. It is the resynthesis core used by the refactor,
// restructure and rewrite transformations, standing in for the SIS/ABC
// factoring machinery.
package sop

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"flowgen/internal/aig"
	"flowgen/internal/bitvec"
)

// Cube is a product term over up to 32 variables: Pos bit i means literal
// x_i appears positively, Neg bit i means it appears negated. A variable
// may not appear in both masks.
type Cube struct {
	Pos, Neg uint32
}

// NumLits returns the number of literals in the cube.
func (c Cube) NumLits() int {
	n := 0
	for m := c.Pos | c.Neg; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// HasVar reports whether variable v appears in the cube (either phase).
func (c Cube) HasVar(v int) bool { return (c.Pos|c.Neg)&(1<<uint(v)) != 0 }

// SOP is a sum (disjunction) of cubes over a fixed variable count.
type SOP struct {
	NVars int
	Cubes []Cube
}

// NumLiterals returns the total literal count of the cover.
func (s SOP) NumLiterals() int {
	n := 0
	for _, c := range s.Cubes {
		n += c.NumLits()
	}
	return n
}

// String renders the SOP in PLA-like textual form, e.g. "ab' + c".
func (s SOP) String() string {
	if len(s.Cubes) == 0 {
		return "0"
	}
	var terms []string
	for _, c := range s.Cubes {
		if c.Pos == 0 && c.Neg == 0 {
			terms = append(terms, "1")
			continue
		}
		var b strings.Builder
		for v := 0; v < s.NVars; v++ {
			if c.Pos&(1<<uint(v)) != 0 {
				fmt.Fprintf(&b, "x%d", v)
			} else if c.Neg&(1<<uint(v)) != 0 {
				fmt.Fprintf(&b, "x%d'", v)
			}
		}
		terms = append(terms, b.String())
	}
	return strings.Join(terms, " + ")
}

// TT evaluates the SOP back into a truth table over nvars variables.
func (s SOP) TT() bitvec.TT {
	r := bitvec.Const(s.NVars, false)
	for _, c := range s.Cubes {
		t := bitvec.Const(s.NVars, true)
		for v := 0; v < s.NVars; v++ {
			if c.Pos&(1<<uint(v)) != 0 {
				t = bitvec.And(t, bitvec.Var(s.NVars, v))
			} else if c.Neg&(1<<uint(v)) != 0 {
				t = bitvec.AndNot(t, bitvec.Var(s.NVars, v))
			}
		}
		r = bitvec.Or(r, t)
	}
	return r
}

// ISOP computes an irredundant sum-of-products cover of the fully
// specified function f using the Minato–Morreale interval algorithm. Its
// one allocation is the returned cube slice.
func ISOP(f bitvec.TT) SOP {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.isop(f, false)
	if len(s.cubes) == 0 {
		return SOP{NVars: f.NumVars()}
	}
	return SOP{NVars: f.NumVars(), Cubes: slices.Clone(s.cubes)}
}

// scratch is the working memory of one ISOP or factoring call. ISOP runs
// on raw words: each recursion frame over more than six variables takes
// its cofactor and cover tables from the top of words at a mark and
// releases them on return, frames over at most six variables keep theirs
// in registers, and every frame appends its cubes to cubes. tmp is
// factorCubes' partition buffer. A sync.Pool serves scratch, so
// concurrent passes on different graphs never share one.
type scratch struct {
	words []uint64
	top   int
	cubes []Cube
	tmp   []Cube
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// take returns the next n words of the stack. isop reserves the whole
// stack up front, so the slices handed out never move.
func (s *scratch) take(n int) []uint64 {
	w := s.words[s.top : s.top+n]
	s.top += n
	return w
}

// isop leaves the ISOP cubes of f (of NOT f when neg is set) in s.cubes.
func (s *scratch) isop(f bitvec.TT, neg bool) {
	s.cubes = s.cubes[:0]
	w := f.Words()
	if len(w) == 1 {
		x := w[0]
		if neg {
			x = ^x
		}
		x = bitvec.Replicate(x, f.NumVars())
		s.isop6(x, x)
		return
	}
	// A frame over m words takes 3·m/2, so all frames below the top one
	// fit in 3·nw words, after the table and its cover.
	nw := len(w)
	if need := 5 * nw; len(s.words) < need {
		s.words = make([]uint64, need)
	}
	s.top = 0
	l := s.take(nw)
	for i, x := range w {
		if neg {
			x = ^x
		}
		l[i] = x
	}
	s.isopWords(l, l, s.take(nw))
	s.top = 0
}

// isopWords appends an irredundant cover S with L <= S <= U to s.cubes
// and writes S as a table into cover. L, U and cover have the same power
// of two word count; cover must not alias L or U.
func (s *scratch) isopWords(L, U, cover []uint64) {
	if allZero(L) {
		clear(cover)
		return
	}
	if allOnes(U) {
		s.cubes = append(s.cubes, Cube{})
		for i := range cover {
			cover[i] = ^uint64(0)
		}
		return
	}
	// Narrow to the leading block that holds the whole interval: equal
	// halves in L and U mean the top variable is in neither support.
	m := len(L)
	for m > 1 && slices.Equal(L[:m/2], L[m/2:m]) && slices.Equal(U[:m/2], U[m/2:m]) {
		m /= 2
	}
	if m == 1 {
		c := s.isop6(L[0], U[0])
		for i := range cover {
			cover[i] = c
		}
		return
	}
	// Split on the highest variable in the support, v = log2(m)+5: its
	// cofactors are the two halves of the block.
	h := m / 2
	v := bits.TrailingZeros(uint(m)) + 5
	L0, L1, U0, U1 := L[:h], L[h:m], U[:h], U[h:m]
	c0, c1 := cover[:h], cover[h:m]
	mark := s.top
	tl, tu, c2 := s.take(h), s.take(h), s.take(h)

	// Minterms coverable only with literal v'.
	for i := range tl {
		tl[i] = L0[i] &^ U1[i]
	}
	first := len(s.cubes)
	s.isopWords(tl, U0, c0)
	s.markVar(first, v, true)
	// Minterms coverable only with literal v.
	for i := range tl {
		tl[i] = L1[i] &^ U0[i]
	}
	first = len(s.cubes)
	s.isopWords(tl, U1, c1)
	s.markVar(first, v, false)
	// What remains must be covered by cubes independent of v.
	for i := range tl {
		tl[i] = L0[i]&^c0[i] | L1[i]&^c1[i]
		tu[i] = U0[i] & U1[i]
	}
	s.isopWords(tl, tu, c2)

	for i := range c2 {
		c0[i] |= c2[i]
		c1[i] |= c2[i]
	}
	for j := m; j < len(cover); j += m {
		copy(cover[j:j+m], cover[:m])
	}
	s.top = mark
}

// isop6 is isopWords for a function of at most six variables held in one
// word (replicated over all 64 bits), returning the cover.
func (s *scratch) isop6(L, U uint64) uint64 {
	if L == 0 {
		return 0
	}
	if U == ^uint64(0) {
		s.cubes = append(s.cubes, Cube{})
		return ^uint64(0)
	}
	// Splitting variable: the highest variable in the support of L or U.
	v := 5
	for ; v >= 0; v-- {
		shift := uint(1) << uint(v)
		low := ^bitvec.VarWord(v)
		if (L^L>>shift)&low != 0 || (U^U>>shift)&low != 0 {
			break
		}
	}
	if v < 0 {
		// L is constant but not 0, U constant but not 1: impossible when
		// L <= U holds; defensive fallback.
		s.cubes = append(s.cubes, Cube{})
		return ^uint64(0)
	}
	shift := uint(1) << uint(v)
	x := bitvec.VarWord(v)
	L0, L1 := L&^x, L&x
	L0, L1 = L0|L0<<shift, L1|L1>>shift
	U0, U1 := U&^x, U&x
	U0, U1 = U0|U0<<shift, U1|U1>>shift

	first := len(s.cubes)
	c0 := s.isop6(L0&^U1, U0)
	s.markVar(first, v, true)
	first = len(s.cubes)
	c1 := s.isop6(L1&^U0, U1)
	s.markVar(first, v, false)
	c2 := s.isop6(L0&^c0|L1&^c1, U0&U1)
	return c2 | c0&^x | c1&x
}

// markVar adds literal v (v' when neg) to the cubes appended since first.
func (s *scratch) markVar(first, v int, neg bool) {
	bit := uint32(1) << uint(v)
	for i := first; i < len(s.cubes); i++ {
		if neg {
			s.cubes[i].Neg |= bit
		} else {
			s.cubes[i].Pos |= bit
		}
	}
}

func allZero(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return false
		}
	}
	return true
}

func allOnes(w []uint64) bool {
	for _, x := range w {
		if x != ^uint64(0) {
			return false
		}
	}
	return true
}

// Expr is a node of a factored-form expression tree.
type Expr struct {
	Kind ExprKind
	Var  int     // for KindLit
	Neg  bool    // for KindLit and KindConst (Neg means const 0)
	Args []*Expr // for KindAnd / KindOr
}

// ExprKind discriminates expression nodes.
type ExprKind uint8

const (
	// KindConst is a constant (Neg: false=1, true=0).
	KindConst ExprKind = iota
	// KindLit is a variable literal.
	KindLit
	// KindAnd is a conjunction of Args.
	KindAnd
	// KindOr is a disjunction of Args.
	KindOr
)

// NumLiterals counts literal leaves of the expression.
func (e *Expr) NumLiterals() int {
	switch e.Kind {
	case KindLit:
		return 1
	case KindAnd, KindOr:
		n := 0
		for _, a := range e.Args {
			n += a.NumLiterals()
		}
		return n
	default:
		return 0
	}
}

// String renders the expression with x<i> variables.
func (e *Expr) String() string {
	switch e.Kind {
	case KindConst:
		if e.Neg {
			return "0"
		}
		return "1"
	case KindLit:
		if e.Neg {
			return fmt.Sprintf("x%d'", e.Var)
		}
		return fmt.Sprintf("x%d", e.Var)
	case KindAnd:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			if a.Kind == KindOr {
				parts[i] = "(" + a.String() + ")"
			} else {
				parts[i] = a.String()
			}
		}
		return strings.Join(parts, "*")
	case KindOr:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = a.String()
		}
		return strings.Join(parts, " + ")
	}
	return "?"
}

// Factor converts an SOP cover into a factored form using recursive
// literal factoring (the "quick factor" algebraic method): the most
// frequent literal is factored out, and quotient and remainder are
// factored recursively. s is not modified.
func Factor(s SOP) *Expr {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.cubes = append(sc.cubes[:0], s.Cubes...)
	return sc.factor(s.NVars)
}

// factor factors the cover in s.cubes, reordering and rewriting them.
func (s *scratch) factor(nvars int) *Expr {
	if len(s.cubes) == 0 {
		return &Expr{Kind: KindConst, Neg: true}
	}
	// Tautology cube present?
	for _, c := range s.cubes {
		if c.Pos == 0 && c.Neg == 0 {
			return &Expr{Kind: KindConst}
		}
	}
	return s.factorCubes(s.cubes, nvars)
}

func cubeExpr(c Cube, nvars int) *Expr {
	n := c.NumLits()
	switch n {
	case 0:
		return &Expr{Kind: KindConst}
	case 1:
		v := bits.TrailingZeros32(c.Pos | c.Neg)
		return &Expr{Kind: KindLit, Var: v, Neg: c.Neg != 0}
	}
	lits := make([]Expr, 0, n)
	args := make([]*Expr, n)
	for v := 0; v < nvars; v++ {
		if c.Pos&(1<<uint(v)) != 0 {
			lits = append(lits, Expr{Kind: KindLit, Var: v})
		} else if c.Neg&(1<<uint(v)) != 0 {
			lits = append(lits, Expr{Kind: KindLit, Var: v, Neg: true})
		}
	}
	for i := range args {
		args[i] = &lits[i]
	}
	return &Expr{Kind: KindAnd, Args: args}
}

// pair returns a node of the given kind over a and b, allocated together
// with its argument array.
func pair(kind ExprKind, a, b *Expr) *Expr {
	p := &struct {
		e    Expr
		args [2]*Expr
	}{args: [2]*Expr{a, b}}
	p.e = Expr{Kind: kind, Args: p.args[:]}
	return &p.e
}

// factorCubes factors cubes, partitioning them in place.
func (s *scratch) factorCubes(cubes []Cube, nvars int) *Expr {
	if len(cubes) == 1 {
		return cubeExpr(cubes[0], nvars)
	}
	// Count literal occurrences: positive phases in [0,32), negative in [32,64).
	var count [64]int
	for _, c := range cubes {
		for m := c.Pos; m != 0; m &= m - 1 {
			count[bits.TrailingZeros32(m)]++
		}
		for m := c.Neg; m != 0; m &= m - 1 {
			count[32+bits.TrailingZeros32(m)]++
		}
	}
	best, bestCount := -1, 1
	for i, n := range count {
		if n > bestCount {
			best, bestCount = i, n
		}
	}
	if best < 0 {
		// No literal shared by two cubes: plain disjunction of products.
		args := make([]*Expr, len(cubes))
		for i, c := range cubes {
			args[i] = cubeExpr(c, nvars)
		}
		return &Expr{Kind: KindOr, Args: args}
	}
	v, neg := best, false
	if best >= 32 {
		v, neg = best-32, true
	}
	bit := uint32(1) << uint(v)
	// Stable partition: the cubes holding the literal move to the front
	// with it divided out (the quotient), the rest (the remainder) follow
	// in their original order.
	rem := s.tmp[:0]
	nq := 0
	for _, c := range cubes {
		switch {
		case neg && c.Neg&bit != 0:
			c.Neg &^= bit
		case !neg && c.Pos&bit != 0:
			c.Pos &^= bit
		default:
			rem = append(rem, c)
			continue
		}
		cubes[nq] = c
		nq++
	}
	copy(cubes[nq:], rem)
	s.tmp = rem
	quot := cubes[:nq]

	lit := &Expr{Kind: KindLit, Var: v, Neg: neg}
	var qex *Expr
	if len(quot) == 1 && quot[0].Pos == 0 && quot[0].Neg == 0 {
		qex = lit // lit * 1
	} else {
		qex = pair(KindAnd, lit, s.factorCubes(quot, nvars))
	}
	if nq == len(cubes) {
		return qex
	}
	return pair(KindOr, qex, s.factorCubes(cubes[nq:], nvars))
}

// FactorTT is a convenience composing ISOP and Factor, choosing whichever
// of f's or its complement's factored form has fewer literals (the
// complement costs one extra output inversion, which is free in an AIG).
// The returned bool reports whether the expression computes NOT f.
func FactorTT(f bitvec.TT) (*Expr, bool) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.isop(f, false)
	pos := s.factor(f.NumVars())
	s.isop(f, true)
	neg := s.factor(f.NumVars())
	if neg.NumLiterals() < pos.NumLiterals() {
		return neg, true
	}
	return pos, false
}

// FactorTTFast is the large-cone variant used by refactoring: for tables
// over more than 8 variables, only the phase with fewer minterms is
// factored (the other phase's ISOP is usually larger and twice the ISOP
// work dominates refactoring runtime); small tables use both phases.
func FactorTTFast(f bitvec.TT) (*Expr, bool) {
	if f.NumVars() <= 8 {
		return FactorTT(f)
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	inv := f.CountOnes() > f.NumBits()/2
	s.isop(f, inv)
	return s.factor(f.NumVars()), inv
}

// BuildAIG constructs the expression over the given leaf literals in g and
// returns the output literal. AND/OR argument lists are built as balanced
// trees ordered by current node level, minimizing added depth.
func BuildAIG(g *aig.AIG, e *Expr, leaves []aig.Lit) aig.Lit {
	switch e.Kind {
	case KindConst:
		if e.Neg {
			return aig.ConstFalse
		}
		return aig.ConstTrue
	case KindLit:
		return leaves[e.Var].NotIf(e.Neg)
	case KindAnd, KindOr:
		var buf [16]aig.Lit
		lits := buf[:0]
		for _, a := range e.Args {
			lits = append(lits, BuildAIG(g, a, leaves))
		}
		return combineBalanced(g, lits, e.Kind == KindOr)
	}
	panic("sop: invalid expression kind")
}

// combineBalanced reduces the literals with AND (or OR when disj is true)
// by repeatedly combining the two lowest-level operands, producing a
// depth-balanced tree. It reorders and overwrites lits.
func combineBalanced(g *aig.AIG, lits []aig.Lit, disj bool) aig.Lit {
	byLevel := func(a, b aig.Lit) int { return g.Level(a.Node()) - g.Level(b.Node()) }
	work := lits
	for len(work) > 1 {
		slices.SortFunc(work, byLevel)
		var n aig.Lit
		if disj {
			n = g.Or(work[0], work[1])
		} else {
			n = g.And(work[0], work[1])
		}
		copy(work, work[2:])
		work[len(work)-2] = n
		work = work[:len(work)-1]
	}
	return work[0]
}
