package cut

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"flowgen/internal/aig"
	"flowgen/internal/bitvec"
)

// buildRandom constructs a random DAG for testing.
func buildRandom(rng *rand.Rand, nin, nand int) *aig.AIG {
	g := aig.New()
	lits := make([]aig.Lit, 0, nin+nand)
	for i := 0; i < nin; i++ {
		lits = append(lits, g.AddInput("i"))
	}
	for i := 0; i < nand; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < 3 && i < len(lits); i++ {
		g.AddOutput(lits[len(lits)-1-i], "o")
	}
	g.RecomputeRefs()
	return g
}

// verifyCutTT checks a cut's truth table against exhaustive simulation of
// the whole graph restricted to the cut leaves.
func verifyCutTT(t *testing.T, g *aig.AIG, root int, c Cut, k int) {
	t.Helper()
	tt, ok := new(Cones).ConeTT(g, root, c.Leaves)
	if !ok {
		t.Fatalf("cut %v of node %d is not a valid cone boundary", c.Leaves, root)
	}
	// The enumerated TT lives over k vars; the cone TT over len(Leaves).
	want := bitvec.Expand(tt, k, identityPerm(len(c.Leaves)))
	if !bitvec.Equal(c.TT, want) {
		t.Fatalf("node %d cut %v: tt=%v want %v", root, c.Leaves, c.TT, want)
	}
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func TestEnumerateSmallAdder(t *testing.T) {
	g := aig.New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	cin := g.AddInput("c")
	sum := g.Xor(g.Xor(a, b), cin)
	cout := g.Maj(a, b, cin)
	g.AddOutput(sum, "s")
	g.AddOutput(cout, "co")
	g.RecomputeRefs()

	s := Enumerate(g, 4, 16)
	// Every live AND node must have at least the trivial cut plus the
	// fanin-pair cut.
	g.ForEachLiveAnd(func(id int) {
		cs := s.Cuts[id]
		if len(cs) < 2 {
			t.Fatalf("node %d has %d cuts", id, len(cs))
		}
		for _, c := range cs {
			if len(c.Leaves) > 4 {
				t.Fatalf("cut too wide: %v", c.Leaves)
			}
			if !sort.IntsAreSorted(c.Leaves) {
				t.Fatalf("cut not sorted: %v", c.Leaves)
			}
			if len(c.Leaves) == 1 && c.Leaves[0] == id {
				continue // trivial cut: TT is Var(0) by construction
			}
			verifyCutTT(t, g, id, c, 4)
		}
	})
	// The sum node must have a cut {a,b,cin} whose function is XOR3.
	sumNode := sum.Node()
	foundXor3 := false
	for _, c := range s.Cuts[sumNode] {
		if len(c.Leaves) == 3 {
			want := bitvec.Xor(bitvec.Xor(bitvec.Var(4, 0), bitvec.Var(4, 1)), bitvec.Var(4, 2))
			got := c.TT
			if sum.IsNeg() {
				got = bitvec.Not(got)
			}
			if bitvec.Equal(got, want) {
				foundXor3 = true
			}
		}
	}
	if !foundXor3 {
		t.Fatal("3-input XOR cut not found on sum node")
	}
}

func TestEnumerateTTsOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := buildRandom(rng, 6, 40)
		s := Enumerate(g, 4, 12)
		g.ForEachLiveAnd(func(id int) {
			for _, c := range s.Cuts[id] {
				if len(c.Leaves) == 1 && c.Leaves[0] == id {
					continue
				}
				verifyCutTT(t, g, id, c, 4)
			}
		})
	}
}

func TestDominancePruning(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := buildRandom(rng, 6, 40)
	s := Enumerate(g, 4, 16)
	g.ForEachLiveAnd(func(id int) {
		cs := s.Cuts[id]
		for i := range cs {
			for j := range cs {
				if i != j && dominates(&cs[i], &cs[j]) {
					t.Fatalf("node %d: cut %v dominates kept cut %v", id, cs[i].Leaves, cs[j].Leaves)
				}
			}
		}
	})
}

func TestReconvCutBoundsAndValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		g := buildRandom(rng, 8, 120)
		for _, k := range []int{4, 8, 12} {
			g.ForEachLiveAnd(func(id int) {
				leaves := new(Cones).ReconvCut(g, id, k)
				if len(leaves) > k {
					t.Fatalf("reconv cut width %d > k=%d", len(leaves), k)
				}
				if _, ok := new(Cones).ConeTT(g, id, leaves); !ok {
					t.Fatalf("reconv cut %v of %d is not a boundary", leaves, id)
				}
			})
		}
	}
}

func TestReconvCutTTMatchesSimulation(t *testing.T) {
	// Build f = (a&b) | (c&d) and check the reconvergence cut TT of the
	// output node over {a,b,c,d}.
	g := aig.New()
	a, b := g.AddInput("a"), g.AddInput("b")
	c, d := g.AddInput("c"), g.AddInput("d")
	f := g.Or(g.And(a, b), g.And(c, d))
	g.AddOutput(f, "f")
	g.RecomputeRefs()
	leaves := new(Cones).ReconvCut(g, f.Node(), 6)
	if len(leaves) != 4 {
		t.Fatalf("leaves = %v, want the 4 inputs", leaves)
	}
	tt, ok := new(Cones).ConeTT(g, f.Node(), leaves)
	if !ok {
		t.Fatal("invalid cone")
	}
	want := bitvec.Or(
		bitvec.And(bitvec.Var(4, 0), bitvec.Var(4, 1)),
		bitvec.And(bitvec.Var(4, 2), bitvec.Var(4, 3)))
	if f.IsNeg() {
		tt = bitvec.Not(tt)
	}
	if !bitvec.Equal(tt, want) {
		t.Fatalf("tt = %v want %v", tt, want)
	}
}

func TestConeNodesTopological(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := buildRandom(rng, 6, 60)
	g.ForEachLiveAnd(func(id int) {
		leaves := new(Cones).ReconvCut(g, id, 8)
		interior := new(Cones).coneNodes(g, id, leaves)
		if interior == nil {
			t.Fatalf("unbounded cone for %d / %v", id, leaves)
		}
		pos := map[int]int{}
		for i, n := range interior {
			pos[n] = i
		}
		if interior[len(interior)-1] != id {
			t.Fatal("root not last")
		}
		leafSet := map[int]bool{}
		for _, l := range leaves {
			leafSet[l] = true
		}
		for _, n := range interior {
			for _, fl := range [2]aig.Lit{g.Fanin0(n), g.Fanin1(n)} {
				fn := fl.Node()
				if leafSet[fn] {
					continue
				}
				fp, ok := pos[fn]
				if !ok || fp >= pos[n] {
					t.Fatalf("fanin %d of %d not earlier in cone order", fn, n)
				}
			}
		}
	})
}

func BenchmarkEnumerateK4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := buildRandom(rng, 16, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Enumerate(g, 4, 8)
	}
}

func BenchmarkReconvCutK12(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := buildRandom(rng, 16, 2000)
	ids := g.LiveAnds()
	var c Cones
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ReconvCut(g, ids[i%len(ids)], 12)
	}
}

// TestConesReuseMatchesFresh runs ReconvCut and ConeTT for every node of
// random graphs on one shared Cones and requires the results of fresh
// calls: no mark or table from an earlier node may leak into a later one.
func TestConesReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var c Cones
	for trial := 0; trial < 5; trial++ {
		g := buildRandom(rng, 10, 150)
		for _, k := range []int{4, 8, 10} {
			g.ForEachLiveAnd(func(id int) {
				got := c.ReconvCut(g, id, k)
				want := new(Cones).ReconvCut(g, id, k)
				if !slices.Equal(got, want) {
					t.Fatalf("node %d k=%d: shared cut %v, fresh %v", id, k, got, want)
				}
				gt, gok := c.ConeTT(g, id, want)
				wt, wok := new(Cones).ConeTT(g, id, want)
				if gok != wok || (gok && !bitvec.Equal(gt, wt)) {
					t.Fatalf("node %d k=%d: shared table %v/%v, fresh %v/%v", id, k, gt, gok, wt, wok)
				}
			})
		}
	}
}

func TestConeTTAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := buildRandom(rng, 16, 2000)
	ids := g.LiveAnds()
	var c Cones
	for _, id := range ids { // grow the scratch to the largest cone
		c.ConeTT(g, id, new(Cones).ReconvCut(g, id, 10))
	}
	for _, id := range ids[len(ids)-5:] {
		leaves := new(Cones).ReconvCut(g, id, 10)
		if n := testing.AllocsPerRun(20, func() { c.ConeTT(g, id, leaves) }); n != 0 {
			t.Errorf("node %d: ConeTT made %v allocations, want 0", id, n)
		}
		if n := testing.AllocsPerRun(20, func() { c.ReconvCut(g, id, 10) }); n != 0 {
			t.Errorf("node %d: ReconvCut made %v allocations, want 0", id, n)
		}
	}
}
