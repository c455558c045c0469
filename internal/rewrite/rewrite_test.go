package rewrite

import (
	"math/rand"
	"testing"

	"flowgen/internal/aig"
	"flowgen/internal/circuits"
)

// buildRandom constructs a random, somewhat redundant DAG.
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
	for i := 0; i < 6 && i < len(lits); i++ {
		g.AddOutput(lits[len(lits)-1-i], "o")
	}
	g.RecomputeRefs()
	return g
}

// buildRedundant builds a circuit with obvious redundancy that rewriting
// should shrink: f = (a&b)|(a&c)|(a&d) duplicated under different shapes.
func buildRedundant() *aig.AIG {
	g := aig.New()
	a, b := g.AddInput("a"), g.AddInput("b")
	c, d := g.AddInput("c"), g.AddInput("d")
	f1 := g.Or(g.Or(g.And(a, b), g.And(a, c)), g.And(a, d))
	// Same function, different structure.
	f2 := g.Or(g.And(a, g.Or(b, c)), g.And(d, a))
	g.AddOutput(f1, "f1")
	g.AddOutput(f2, "f2")
	g.RecomputeRefs()
	return g
}

func checkPreserves(t *testing.T, name string, tr Transform, g *aig.AIG) *aig.AIG {
	t.Helper()
	before := g.SimSignature(1234, 4)
	ng := tr(g)
	after := ng.SimSignature(1234, 4)
	if !aig.SigEqual(before, after) {
		t.Fatalf("%s changed circuit function", name)
	}
	return ng
}

func TestAllTransformsPreserveFunctionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		for _, name := range Names {
			tr, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g := buildRandom(rng, 8, 150)
			checkPreserves(t, name, tr, g)
		}
	}
}

func TestBalanceReducesDepthOfChain(t *testing.T) {
	g := aig.New()
	in := make([]aig.Lit, 16)
	for i := range in {
		in[i] = g.AddInput("x")
	}
	acc := in[0]
	for i := 1; i < len(in); i++ {
		acc = g.And(acc, in[i])
	}
	g.AddOutput(acc, "f")
	g.RecomputeRefs()
	if lv := g.RecomputeLevels(); lv != 15 {
		t.Fatalf("chain depth = %d, want 15", lv)
	}
	ng := checkPreserves(t, "balance", Balance, g)
	if lv := ng.RecomputeLevels(); lv != 4 {
		t.Fatalf("balanced depth = %d, want 4", lv)
	}
}

func TestBalancePreservesSharing(t *testing.T) {
	// A multi-fanout node must not be duplicated by balancing.
	g := aig.New()
	a, b, c, d := g.AddInput("a"), g.AddInput("b"), g.AddInput("c"), g.AddInput("d")
	sh := g.And(a, b)
	f1 := g.And(sh, c)
	f2 := g.And(sh, d)
	g.AddOutput(f1, "f1")
	g.AddOutput(f2, "f2")
	g.RecomputeRefs()
	ng := checkPreserves(t, "balance", Balance, g)
	if n := ng.NumAnds(); n != 3 {
		t.Fatalf("balance broke sharing: %d ANDs, want 3", n)
	}
}

func TestRewriteShrinksRedundantLogic(t *testing.T) {
	g := buildRedundant()
	before := g.NumAnds()
	ng := checkPreserves(t, "rewrite", func(g *aig.AIG) *aig.AIG { return Rewrite(g, false) }, g)
	if ng.NumAnds() > before {
		t.Fatalf("rewrite grew the graph: %d -> %d", before, ng.NumAnds())
	}
	if ng.NumAnds() >= before {
		t.Logf("note: rewrite kept size %d (structure already compact)", before)
	}
}

func TestRewriteNeverIncreasesNodeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		g := buildRandom(rng, 7, 120)
		before := g.NumAnds()
		ng := Rewrite(g, false)
		if ng.NumAnds() > before {
			t.Fatalf("trial %d: rewrite grew graph %d -> %d", trial, before, ng.NumAnds())
		}
	}
}

func TestRefactorNeverIncreasesNodeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		g := buildRandom(rng, 7, 120)
		before := g.NumAnds()
		ng := Refactor(g, false)
		if ng.NumAnds() > before {
			t.Fatalf("trial %d: refactor grew graph %d -> %d", trial, before, ng.NumAnds())
		}
	}
}

func TestZeroVariantsPreserveNodeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		g := buildRandom(rng, 7, 100)
		before := g.NumAnds()
		ng := Rewrite(g, true)
		if ng.NumAnds() > before {
			t.Fatalf("rewrite -z grew graph %d -> %d", before, ng.NumAnds())
		}
		g2 := buildRandom(rng, 7, 100)
		before2 := g2.NumAnds()
		ng2 := Refactor(g2, true)
		if ng2.NumAnds() > before2 {
			t.Fatalf("refactor -z grew graph %d -> %d", before2, ng2.NumAnds())
		}
	}
}

func TestTransformOrderMatters(t *testing.T) {
	// The premise of the paper: different permutations of the same
	// transformations give different QoR. Verify two orders diverge on at
	// least one statistic for a random circuit family.
	rng := rand.New(rand.NewSource(11))
	diverged := false
	for trial := 0; trial < 10 && !diverged; trial++ {
		seed := rng.Int63()
		mk := func() *aig.AIG { return buildRandom(rand.New(rand.NewSource(seed)), 8, 200) }
		g1, _, err := Apply(mk(), []string{"balance", "rewrite", "refactor"})
		if err != nil {
			t.Fatal(err)
		}
		g2, _, err := Apply(mk(), []string{"refactor", "rewrite", "balance"})
		if err != nil {
			t.Fatal(err)
		}
		s1, s2 := g1.Stats(), g2.Stats()
		if s1.Ands != s2.Ands || s1.Levels != s2.Levels {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("transformation order never affected QoR across 10 random circuits")
	}
}

func TestDeterminism(t *testing.T) {
	// The same flow applied to the same circuit must give identical stats
	// (labels in the framework depend on this).
	for trial := 0; trial < 3; trial++ {
		mk := func() *aig.AIG { return buildRandom(rand.New(rand.NewSource(99)), 8, 200) }
		flow := []string{"rewrite", "refactor", "balance", "restructure", "rewrite -z", "refactor -z"}
		g1, st1, err := Apply(mk(), flow)
		if err != nil {
			t.Fatal(err)
		}
		g2, st2, err := Apply(mk(), flow)
		if err != nil {
			t.Fatal(err)
		}
		if g1.Stats() != g2.Stats() {
			t.Fatalf("nondeterministic result: %v vs %v", g1.Stats(), g2.Stats())
		}
		for i := range st1 {
			if st1[i] != st2[i] {
				t.Fatalf("step %d diverged: %v vs %v", i, st1[i], st2[i])
			}
		}
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("fluxcapacitate"); err == nil {
		t.Fatal("expected error for unknown transform")
	}
	for _, n := range Names {
		if _, err := ByName(n); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
}

func TestApplySequenceStats(t *testing.T) {
	g := buildRedundant()
	_, stats, err := Apply(g, []string{"balance", "rewrite"})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats len = %d", len(stats))
	}
}

func BenchmarkRewritePass(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := buildRandom(rng, 16, 1500)
		_ = Rewrite(g, false)
	}
}

func BenchmarkRefactorPass(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := buildRandom(rng, 16, 1500)
		_ = Refactor(g, false)
	}
}

func BenchmarkBalancePass(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := buildRandom(rng, 16, 1500)
		_ = Balance(g)
	}
}

func TestFraigExtensionRegistered(t *testing.T) {
	tr, err := ByName("fraig")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	g := buildRandom(rng, 6, 120)
	before := g.NumAnds()
	ng := checkPreserves(t, "fraig", tr, g)
	if ng.NumAnds() > before {
		t.Fatalf("fraig grew graph %d -> %d", before, ng.NumAnds())
	}
}

func TestFlowWithFraigExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := buildRandom(rng, 7, 150)
	sig := g.SimSignature(55, 4)
	ng, _, err := Apply(g, []string{"rewrite", "fraig", "balance", "refactor"})
	if err != nil {
		t.Fatal(err)
	}
	if !aig.SigEqual(sig, ng.SimSignature(55, 4)) {
		t.Fatal("fraig-extended flow changed function")
	}
}

// TestApplyEqualsChainedSteps pins the invariant the prefix-memoized
// evaluation engine (internal/synth) depends on: Apply is exactly the
// composition of Step calls, so an evaluator that walks a flow
// step-by-step (caching intermediate graphs) reproduces Apply's final
// graph bit-for-bit.
func TestApplyEqualsChainedSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	names := []string{"balance", "rewrite", "refactor -z", "restructure", "rewrite -z", "refactor"}
	g := buildRandom(rng, 8, 150)
	manual := g.Clone()
	viaApply, stats, err := Apply(g, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(names) {
		t.Fatalf("Apply returned %d stats, want %d", len(stats), len(names))
	}
	for _, name := range names {
		tr, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		manual = Step(tr, manual)
	}
	if viaApply.StructuralFingerprint() != manual.StructuralFingerprint() {
		t.Fatal("Apply and chained Steps diverged")
	}
}

// TestStepDeterministicOnClones: a Step on a bit-exact clone must
// reproduce the original's result representation-identically (the memo
// engine hands clones of cached intermediate graphs to sibling
// prefixes).
func TestStepDeterministicOnClones(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, name := range append(append([]string(nil), Names...), "fraig") {
		tr, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := buildRandom(rng, 8, 120)
		c := g.Clone()
		a := Step(tr, g)
		b := Step(tr, c)
		if a.StructuralFingerprint() != b.StructuralFingerprint() {
			t.Fatalf("%s diverged between a graph and its clone", name)
		}
	}
}

// TestStepIsCanonical: the graph a Step returns is its own Cleanup, for
// every transformation along a flow on a real design. A transformation
// that replaces nodes in place can leave a fanin resolving into its
// sibling's cone; a single compaction of such a graph is not canonical
// (mont8's fourth step below is one), and without the canonical form
// the memo engine's fingerprints and the QoRs would depend on how many
// times a graph had been cleaned.
func TestStepIsCanonical(t *testing.T) {
	for _, design := range []string{"mont8", "alu8"} {
		d, err := circuits.ByName(design)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Build().Cleanup()
		for _, name := range []string{"refactor", "rewrite", "refactor -z", "rewrite -z", "restructure", "balance"} {
			tr, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g = Step(tr, g)
			if g.Cleanup().StructuralFingerprint() != g.StructuralFingerprint() {
				t.Fatalf("%s: Step(%s) is not its own Cleanup", design, name)
			}
		}
	}
}
