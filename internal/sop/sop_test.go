package sop

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"flowgen/internal/aig"
	"flowgen/internal/bitvec"
)

func randomTT(rng *rand.Rand, k int) bitvec.TT {
	t := bitvec.New(k)
	for i := 0; i < t.NumBits(); i++ {
		if rng.Intn(2) == 1 {
			t.SetBit(i, true)
		}
	}
	return t
}

func TestISOPRoundTripExhaustive3Vars(t *testing.T) {
	// Every 3-variable function must round-trip through ISOP.
	for fn := 0; fn < 256; fn++ {
		f := bitvec.New(3)
		for i := 0; i < 8; i++ {
			if fn&(1<<uint(i)) != 0 {
				f.SetBit(i, true)
			}
		}
		s := ISOP(f)
		if !bitvec.Equal(s.TT(), f) {
			t.Fatalf("fn %02x: ISOP %v does not match", fn, s)
		}
	}
}

func TestISOPRoundTripRandomLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{4, 6, 8, 10, 12} {
		for trial := 0; trial < 10; trial++ {
			f := randomTT(rng, k)
			s := ISOP(f)
			if !bitvec.Equal(s.TT(), f) {
				t.Fatalf("k=%d trial=%d: round trip failed", k, trial)
			}
		}
	}
}

func TestISOPIrredundant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		f := randomTT(rng, 5)
		s := ISOP(f)
		// Removing any single cube must change the function.
		for i := range s.Cubes {
			reduced := SOP{NVars: s.NVars}
			reduced.Cubes = append(reduced.Cubes, s.Cubes[:i]...)
			reduced.Cubes = append(reduced.Cubes, s.Cubes[i+1:]...)
			if bitvec.Equal(reduced.TT(), f) {
				t.Fatalf("trial %d: cube %d is redundant in %v", trial, i, s)
			}
		}
	}
}

func TestISOPConstants(t *testing.T) {
	c0 := ISOP(bitvec.Const(4, false))
	if len(c0.Cubes) != 0 {
		t.Fatalf("const0 ISOP = %v", c0)
	}
	c1 := ISOP(bitvec.Const(4, true))
	if len(c1.Cubes) != 1 || c1.Cubes[0].NumLits() != 0 {
		t.Fatalf("const1 ISOP = %v", c1)
	}
}

func TestFactorPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{3, 4, 5, 6, 8} {
		for trial := 0; trial < 20; trial++ {
			f := randomTT(rng, k)
			e := Factor(ISOP(f))
			// Evaluate the expression on every minterm.
			for i := 0; i < f.NumBits(); i++ {
				if evalExpr(e, i) != f.Bit(i) {
					t.Fatalf("k=%d trial=%d minterm %d: %s", k, trial, i, e)
				}
			}
		}
	}
}

func evalExpr(e *Expr, minterm int) bool {
	switch e.Kind {
	case KindConst:
		return !e.Neg
	case KindLit:
		v := minterm&(1<<uint(e.Var)) != 0
		return v != e.Neg
	case KindAnd:
		for _, a := range e.Args {
			if !evalExpr(a, minterm) {
				return false
			}
		}
		return true
	case KindOr:
		for _, a := range e.Args {
			if evalExpr(a, minterm) {
				return true
			}
		}
		return false
	}
	return false
}

func TestFactorSharesLiterals(t *testing.T) {
	// f = a*b + a*c should factor to a*(b+c): 3 literals, not 4.
	f := bitvec.Or(
		bitvec.And(bitvec.Var(3, 0), bitvec.Var(3, 1)),
		bitvec.And(bitvec.Var(3, 0), bitvec.Var(3, 2)))
	e := Factor(ISOP(f))
	if e.NumLiterals() > 3 {
		t.Fatalf("factored form %s has %d literals, want <= 3", e, e.NumLiterals())
	}
}

func TestFactorTTPicksMinimalPhase(t *testing.T) {
	// FactorTT must return min(literals(f), literals(!f)) and a correct
	// inversion flag on random functions.
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		f := randomTT(rng, 5)
		e, inv := FactorTT(f)
		pos := Factor(ISOP(f)).NumLiterals()
		neg := Factor(ISOP(bitvec.Not(f))).NumLiterals()
		want := pos
		if neg < pos {
			want = neg
		}
		if e.NumLiterals() != want {
			t.Fatalf("trial %d: got %d literals, want %d", trial, e.NumLiterals(), want)
		}
		for i := 0; i < f.NumBits(); i++ {
			if (evalExpr(e, i) != inv) != f.Bit(i) {
				t.Fatalf("trial %d minterm %d: wrong function", trial, i)
			}
		}
	}
}

func TestBuildAIGMatchesTT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{3, 5, 7} {
		for trial := 0; trial < 10; trial++ {
			f := randomTT(rng, k)
			e, inv := FactorTT(f)
			g := aig.New()
			leaves := make([]aig.Lit, k)
			for i := range leaves {
				leaves[i] = g.AddInput("x")
			}
			out := BuildAIG(g, e, leaves).NotIf(inv)
			g.AddOutput(out, "f")
			for i := 0; i < f.NumBits(); i++ {
				in := make([]bool, k)
				for v := 0; v < k; v++ {
					in[v] = i&(1<<uint(v)) != 0
				}
				if g.EvalUint(in)[0] != f.Bit(i) {
					t.Fatalf("k=%d trial=%d minterm %d mismatch", k, trial, i)
				}
			}
		}
	}
}

func TestBuildAIGBalancedDepth(t *testing.T) {
	// An 8-literal conjunction must be built with depth 3, not 7.
	g := aig.New()
	leaves := make([]aig.Lit, 8)
	args := make([]*Expr, 8)
	for i := range leaves {
		leaves[i] = g.AddInput("x")
		args[i] = &Expr{Kind: KindLit, Var: i}
	}
	out := BuildAIG(g, &Expr{Kind: KindAnd, Args: args}, leaves)
	g.AddOutput(out, "f")
	if lv := g.RecomputeLevels(); lv != 3 {
		t.Fatalf("depth = %d, want 3", lv)
	}
}

// Property: ISOP of any 6-var function round-trips.
func TestQuickISOPRoundTrip(t *testing.T) {
	f := func(w uint64) bool {
		tt := bitvec.New(6)
		for i := 0; i < 64; i++ {
			if w&(1<<uint(i)) != 0 {
				tt.SetBit(i, true)
			}
		}
		return bitvec.Equal(ISOP(tt).TT(), tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: factored form never has more literals than the SOP.
func TestQuickFactorNoWorseThanSOP(t *testing.T) {
	f := func(w uint64) bool {
		tt := bitvec.New(6)
		for i := 0; i < 64; i++ {
			if w&(1<<uint(i)) != 0 {
				tt.SetBit(i, true)
			}
		}
		s := ISOP(tt)
		return Factor(s).NumLiterals() <= s.NumLiterals()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkISOP8Vars(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := randomTT(rng, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ISOP(f)
	}
}

func BenchmarkFactor10Vars(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := randomTT(rng, 10)
	s := ISOP(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Factor(s)
	}
}

// isopOracle is the table-based Minato–Morreale recursion ISOP replaced:
// it returns an irredundant cover S with L <= S <= U, plus the covered
// set as a truth table. ISOP must return its cubes exactly, order
// included.
func isopOracle(L, U bitvec.TT, nvars int) ([]Cube, bitvec.TT) {
	if L.IsConst0() {
		return nil, bitvec.Const(nvars, false)
	}
	if U.IsConst1() {
		return []Cube{{}}, bitvec.Const(nvars, true)
	}
	// Splitting variable: the highest variable in the support of L or U.
	v := -1
	for i := nvars - 1; i >= 0; i-- {
		if L.DependsOn(i) || U.DependsOn(i) {
			v = i
			break
		}
	}
	if v < 0 {
		return []Cube{{}}, bitvec.Const(nvars, true)
	}
	L0, L1 := bitvec.Cofactor0(L, v), bitvec.Cofactor1(L, v)
	U0, U1 := bitvec.Cofactor0(U, v), bitvec.Cofactor1(U, v)
	S0, C0 := isopOracle(bitvec.AndNot(L0, U1), U0, nvars)
	S1, C1 := isopOracle(bitvec.AndNot(L1, U0), U1, nvars)
	Lnew := bitvec.Or(bitvec.AndNot(L0, C0), bitvec.AndNot(L1, C1))
	S2, C2 := isopOracle(Lnew, bitvec.And(U0, U1), nvars)

	cubes := make([]Cube, 0, len(S0)+len(S1)+len(S2))
	for _, c := range S0 {
		c.Neg |= 1 << uint(v)
		cubes = append(cubes, c)
	}
	for _, c := range S1 {
		c.Pos |= 1 << uint(v)
		cubes = append(cubes, c)
	}
	cubes = append(cubes, S2...)
	x := bitvec.Var(nvars, v)
	cover := bitvec.Or(C2, bitvec.Or(bitvec.AndNot(C0, x), bitvec.And(C1, x)))
	return cubes, cover
}

// factorOracle is the copying literal factoring factorCubes replaced.
func factorOracle(cubes []Cube, nvars int) *Expr {
	if len(cubes) == 0 {
		return &Expr{Kind: KindConst, Neg: true}
	}
	for _, c := range cubes {
		if c.Pos == 0 && c.Neg == 0 {
			return &Expr{Kind: KindConst}
		}
	}
	var rec func(cubes []Cube) *Expr
	rec = func(cubes []Cube) *Expr {
		if len(cubes) == 1 {
			return cubeExpr(cubes[0], nvars)
		}
		var count [64]int
		for _, c := range cubes {
			for v := 0; v < nvars; v++ {
				if c.Pos&(1<<uint(v)) != 0 {
					count[v]++
				}
				if c.Neg&(1<<uint(v)) != 0 {
					count[32+v]++
				}
			}
		}
		best, bestCount := -1, 1
		for i, n := range count {
			if n > bestCount {
				best, bestCount = i, n
			}
		}
		if best < 0 {
			args := make([]*Expr, len(cubes))
			for i, c := range cubes {
				args[i] = cubeExpr(c, nvars)
			}
			return &Expr{Kind: KindOr, Args: args}
		}
		v, neg := best, best >= 32
		if neg {
			v -= 32
		}
		bit := uint32(1) << uint(v)
		var quot, rem []Cube
		for _, c := range cubes {
			switch {
			case neg && c.Neg&bit != 0:
				c.Neg &^= bit
				quot = append(quot, c)
			case !neg && c.Pos&bit != 0:
				c.Pos &^= bit
				quot = append(quot, c)
			default:
				rem = append(rem, c)
			}
		}
		lit := &Expr{Kind: KindLit, Var: v, Neg: neg}
		qex := lit
		if len(quot) != 1 || quot[0].Pos != 0 || quot[0].Neg != 0 {
			qex = &Expr{Kind: KindAnd, Args: []*Expr{lit, rec(quot)}}
		}
		if len(rem) == 0 {
			return qex
		}
		return &Expr{Kind: KindOr, Args: []*Expr{qex, rec(rem)}}
	}
	return rec(cubes)
}

// fuzzTT draws a table over nvars variables that depends only on a
// random subset of them, with a random density of ones, so that
// interval narrowing and every split position get exercised.
func fuzzTT(rng *rand.Rand, nvars int, density float64) bitvec.TT {
	support := rng.Intn(1 << uint(nvars))
	f := bitvec.New(nvars)
	vals := map[int]bool{}
	for i := 0; i < f.NumBits(); i++ {
		key := i & support
		v, ok := vals[key]
		if !ok {
			v = rng.Float64() < density
			vals[key] = v
		}
		f.SetBit(i, v)
	}
	return f
}

// FuzzISOPMatchesOracle requires ISOP to return exactly the oracle's cube
// list, order included, for random tables over 0..12 variables, and
// Factor of that cover to match the copying factoring oracle.
func FuzzISOPMatchesOracle(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(128))
	f.Add(uint8(3), int64(2), uint8(40))
	f.Add(uint8(6), int64(3), uint8(128))
	f.Add(uint8(7), int64(4), uint8(200))
	f.Add(uint8(10), int64(5), uint8(128))
	f.Add(uint8(12), int64(6), uint8(20))
	f.Fuzz(func(t *testing.T, nvars uint8, seed int64, density uint8) {
		k := int(nvars % 13)
		rng := rand.New(rand.NewSource(seed))
		tt := fuzzTT(rng, k, float64(density)/255)
		for _, fn := range []bitvec.TT{tt, bitvec.Not(tt)} {
			want, cover := isopOracle(fn, fn, k)
			if !bitvec.Equal(cover, fn) {
				t.Fatalf("k=%d: oracle cover differs from the function", k)
			}
			got := ISOP(fn)
			if got.NVars != k || !slices.Equal(got.Cubes, want) {
				t.Fatalf("k=%d %v:\n got %v\nwant %v", k, fn, got, SOP{NVars: k, Cubes: want})
			}
			if g, w := Factor(got).String(), factorOracle(want, k).String(); g != w {
				t.Fatalf("k=%d %v: Factor %s, oracle %s", k, fn, g, w)
			}
		}
	})
}

func TestISOPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop values")
	}
	rng := rand.New(rand.NewSource(8))
	for _, k := range []int{4, 6, 10, 12} {
		f := randomTT(rng, k)
		ISOP(f) // warm the pool
		if n := testing.AllocsPerRun(20, func() { ISOP(f) }); n > 1 {
			t.Errorf("k=%d: ISOP made %v allocations, want at most 1", k, n)
		}
	}
}

// TestCombineBalancedMatchesSortSlice pins combineBalanced's operand
// order to the copy-and-sort.Slice loop it replaced: equal-level operands
// must pair exactly as before, or rebuilt cones change shape.
func TestCombineBalancedMatchesSortSlice(t *testing.T) {
	oracle := func(g *aig.AIG, lits []aig.Lit, disj bool) aig.Lit {
		level := func(l aig.Lit) int { return g.Level(l.Node()) }
		work := append([]aig.Lit(nil), lits...)
		for len(work) > 1 {
			sort.Slice(work, func(i, j int) bool { return level(work[i]) < level(work[j]) })
			var n aig.Lit
			if disj {
				n = g.Or(work[0], work[1])
			} else {
				n = g.And(work[0], work[1])
			}
			work = append(work[2:], n)
		}
		return work[0]
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		// Operands at a handful of levels, so many ties.
		g := aig.New()
		var pool []aig.Lit
		for i := 0; i < 30; i++ {
			pool = append(pool, g.AddInput("x"))
		}
		for i := 0; i < 60; i++ {
			a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			pool = append(pool, g.And(a.NotIf(rng.Intn(2) == 0), b))
		}
		n := 1 + rng.Intn(24)
		lits := make([]aig.Lit, n)
		for i := range lits {
			lits[i] = pool[rng.Intn(len(pool))].NotIf(rng.Intn(2) == 0)
		}
		disj := rng.Intn(2) == 0
		h := g.Clone()
		want := oracle(g, lits, disj)
		got := combineBalanced(h, slices.Clone(lits), disj)
		if got != want || h.NumNodesRaw() != g.NumNodesRaw() {
			t.Fatalf("trial %d (n=%d): got %v over %d nodes, want %v over %d",
				trial, n, got, h.NumNodesRaw(), want, g.NumNodesRaw())
		}
	}
}
