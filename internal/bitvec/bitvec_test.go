package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConst(t *testing.T) {
	for k := 0; k <= 8; k++ {
		c0 := Const(k, false)
		c1 := Const(k, true)
		if !c0.IsConst0() || c0.IsConst1() && k > 0 {
			t.Fatalf("k=%d const0 wrong", k)
		}
		if !c1.IsConst1() {
			t.Fatalf("k=%d const1 wrong", k)
		}
		if c0.CountOnes() != 0 {
			t.Fatalf("k=%d const0 popcount %d", k, c0.CountOnes())
		}
		if c1.CountOnes() != 1<<k {
			t.Fatalf("k=%d const1 popcount %d", k, c1.CountOnes())
		}
	}
}

func TestVarBits(t *testing.T) {
	for k := 1; k <= 9; k++ {
		for v := 0; v < k; v++ {
			x := Var(k, v)
			for i := 0; i < 1<<k; i++ {
				want := i&(1<<v) != 0
				if x.Bit(i) != want {
					t.Fatalf("k=%d v=%d minterm %d: got %v want %v", k, v, i, x.Bit(i), want)
				}
			}
		}
	}
}

func TestBooleanOps(t *testing.T) {
	const k = 7
	rng := rand.New(rand.NewSource(1))
	a, b := randomTT(rng, k), randomTT(rng, k)
	and, or, xor, nota := And(a, b), Or(a, b), Xor(a, b), Not(a)
	for i := 0; i < 1<<k; i++ {
		if and.Bit(i) != (a.Bit(i) && b.Bit(i)) {
			t.Fatal("and mismatch")
		}
		if or.Bit(i) != (a.Bit(i) || b.Bit(i)) {
			t.Fatal("or mismatch")
		}
		if xor.Bit(i) != (a.Bit(i) != b.Bit(i)) {
			t.Fatal("xor mismatch")
		}
		if nota.Bit(i) != !a.Bit(i) {
			t.Fatal("not mismatch")
		}
	}
}

func TestMux(t *testing.T) {
	const k = 6
	rng := rand.New(rand.NewSource(7))
	s, a, b := randomTT(rng, k), randomTT(rng, k), randomTT(rng, k)
	m := Mux(s, a, b)
	for i := 0; i < 1<<k; i++ {
		want := b.Bit(i)
		if s.Bit(i) {
			want = a.Bit(i)
		}
		if m.Bit(i) != want {
			t.Fatalf("mux minterm %d", i)
		}
	}
}

func randomTT(rng *rand.Rand, k int) TT {
	t := New(k)
	for i := range t.w {
		t.w[i] = rng.Uint64()
	}
	t.mask()
	return t
}

func TestCofactorsSmallAndLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range []int{3, 5, 6, 7, 8, 9} {
		f := randomTT(rng, k)
		for v := 0; v < k; v++ {
			c0, c1 := Cofactor0(f, v), Cofactor1(f, v)
			for i := 0; i < 1<<k; i++ {
				i0 := i &^ (1 << v)
				i1 := i | (1 << v)
				if c0.Bit(i) != f.Bit(i0) {
					t.Fatalf("k=%d v=%d cofactor0 minterm %d", k, v, i)
				}
				if c1.Bit(i) != f.Bit(i1) {
					t.Fatalf("k=%d v=%d cofactor1 minterm %d", k, v, i)
				}
			}
			// Shannon expansion: f = v&c1 | ~v&c0.
			x := Var(k, v)
			rec := Or(And(x, c1), AndNot(c0, x))
			if !Equal(rec, f) {
				t.Fatalf("k=%d v=%d shannon expansion failed", k, v)
			}
		}
	}
}

func TestSupport(t *testing.T) {
	const k = 8
	// f = x1 XOR x4: support is exactly {1,4}.
	f := Xor(Var(k, 1), Var(k, 4))
	sup := f.Support()
	if len(sup) != 2 || sup[0] != 1 || sup[1] != 4 {
		t.Fatalf("support = %v", sup)
	}
	if f.DependsOn(0) || !f.DependsOn(1) {
		t.Fatal("DependsOn wrong")
	}
}

func TestExpandShrinkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		small := randomTT(rng, 3)
		perm := []int{5, 0, 2} // x0->y5, x1->y0, x2->y2
		big := Expand(small, 6, perm)
		// Verify semantics on every big minterm.
		for i := 0; i < 64; i++ {
			idx := 0
			if i&(1<<5) != 0 {
				idx |= 1
			}
			if i&1 != 0 {
				idx |= 2
			}
			if i&(1<<2) != 0 {
				idx |= 4
			}
			if big.Bit(i) != small.Bit(idx) {
				t.Fatalf("expand minterm %d", i)
			}
		}
		back := Shrink(big, perm)
		if !Equal(back, small) {
			t.Fatalf("round trip failed: %v -> %v -> %v", small, big, back)
		}
	}
}

// TestStretchWordMatchesExpand checks the word-level stretch against
// Expand for every increasing placement of n <= k <= 6 variables.
func TestStretchWordMatchesExpand(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for k := 1; k <= 6; k++ {
		for set := 0; set < 1<<uint(k); set++ {
			var perm []int
			for v := 0; v < k; v++ {
				if set&(1<<uint(v)) != 0 {
					perm = append(perm, v)
				}
			}
			small := randomTT(rng, len(perm))
			want := Expand(small, k, perm)
			// The stretch input is the small table over k variables.
			in := Expand(small, k, identity(len(perm)))
			got := FromWords(k, []uint64{StretchWord(in.Words()[0], perm)})
			if !Equal(got, want) {
				t.Fatalf("k=%d perm=%v: stretch %v, expand %v", k, perm, got, want)
			}
		}
	}
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func TestReplicateKeepsFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for k := 0; k <= 6; k++ {
		f := randomTT(rng, k)
		w := Replicate(f.Words()[0], k)
		for m := 0; m < 64; m++ {
			if (w>>uint(m))&1 != 0 != f.Bit(m&(f.NumBits()-1)) {
				t.Fatalf("k=%d minterm %d: replicated table differs", k, m)
			}
		}
	}
}

func TestHashDistinguishes(t *testing.T) {
	a := Var(4, 0)
	b := Var(4, 1)
	if a.Hash() == b.Hash() {
		t.Fatal("hash collision on trivial functions (suspicious)")
	}
	if a.Hash() != Var(4, 0).Hash() {
		t.Fatal("hash not deterministic")
	}
}

func TestStringFormat(t *testing.T) {
	and2 := And(Var(2, 0), Var(2, 1))
	if got := and2.String(); got != "0x8" {
		t.Fatalf("AND2 string = %q, want 0x8", got)
	}
	xor2 := Xor(Var(2, 0), Var(2, 1))
	if got := xor2.String(); got != "0x6" {
		t.Fatalf("XOR2 string = %q, want 0x6", got)
	}
}

// Property: De Morgan holds for random tables.
func TestQuickDeMorgan(t *testing.T) {
	f := func(aw, bw uint64) bool {
		a, b := New(6), New(6)
		a.w[0], b.w[0] = aw, bw
		lhs := Not(And(a, b))
		rhs := Or(Not(a), Not(b))
		return Equal(lhs, rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cofactor of the cofactored variable removes dependence.
func TestQuickCofactorRemovesSupport(t *testing.T) {
	f := func(w uint64, vRaw uint8) bool {
		v := int(vRaw) % 6
		a := New(6)
		a.w[0] = w
		return !Cofactor0(a, v).DependsOn(v) && !Cofactor1(a, v).DependsOn(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickXorSelfIsZero(t *testing.T) {
	f := func(w uint64) bool {
		a := New(6)
		a.w[0] = w
		return Xor(a, a).IsConst0()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnd12Vars(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randomTT(rng, 12), randomTT(rng, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = And(x, y)
	}
}

func BenchmarkCofactor12Vars(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomTT(rng, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Cofactor1(x, 7)
	}
}
