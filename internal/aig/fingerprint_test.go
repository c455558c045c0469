package aig

import (
	"math/rand"
	"testing"
)

// randomGraph builds a random DAG over nPIs inputs with nAnds gates.
func randomGraph(seed int64, nPIs, nAnds int) *AIG {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	lits := []Lit{ConstTrue}
	for i := 0; i < nPIs; i++ {
		lits = append(lits, g.AddInput("i"))
	}
	for i := 0; i < nAnds; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < 4; i++ {
		g.AddOutput(lits[len(lits)-1-i].NotIf(rng.Intn(2) == 1), "o")
	}
	g.RecomputeLevels()
	g.RecomputeRefs()
	return g
}

func TestCloneIsBitExact(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(seed, 8, 60)
		c := g.Clone()
		if g.StructuralFingerprint() != c.StructuralFingerprint() {
			t.Fatalf("seed %d: clone fingerprint differs", seed)
		}
		if !SigEqual(g.SimSignature(7, 2), c.SimSignature(7, 2)) {
			t.Fatalf("seed %d: clone function differs", seed)
		}
		// Mutating the clone must not leak into the original.
		before := g.StructuralFingerprint()
		c.And(c.PI(0), c.PI(1).Not())
		c.AddOutput(c.PI(2), "extra")
		if g.StructuralFingerprint() != before {
			t.Fatalf("seed %d: mutating the clone changed the original", seed)
		}
	}
}

func TestCloneBehavesIdenticallyUnderCleanup(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(seed, 6, 40)
		c := g.Clone()
		if g.Cleanup().StructuralFingerprint() != c.Cleanup().StructuralFingerprint() {
			t.Fatalf("seed %d: Cleanup diverged between clone and original", seed)
		}
	}
}

// TestCleanupIdempotent: re-cleaning the Cleanup of an And-constructed
// graph reproduces it bit-for-bit. (Graphs with replacement
// indirections are covered by rewrite's TestStepIsCanonical.)
func TestCleanupIdempotent(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(seed, 10, 120)
		c1 := g.Cleanup()
		c2 := c1.Cleanup()
		if c1.StructuralFingerprint() != c2.StructuralFingerprint() {
			t.Fatalf("seed %d: Cleanup not idempotent", seed)
		}
	}
}

func TestStructuralFingerprintSeparatesGraphs(t *testing.T) {
	fps := map[Fingerprint]bool{}
	for seed := int64(0); seed < 30; seed++ {
		fps[randomGraph(seed, 8, 60).StructuralFingerprint()] = true
	}
	if len(fps) != 30 {
		t.Fatalf("fingerprint collisions across random graphs: %d distinct of 30", len(fps))
	}
	// Complementing one PO must change the fingerprint.
	g := randomGraph(1, 8, 60)
	fp := g.StructuralFingerprint()
	g.pos[0] = g.pos[0].Not()
	if g.StructuralFingerprint() == fp {
		t.Fatal("fingerprint ignores output phase")
	}
}

func TestCloneDuringSpeculationPanics(t *testing.T) {
	g := randomGraph(2, 6, 30)
	g.RecomputeRefs()
	var root int
	g.ForEachLiveAnd(func(id int) { root = id })
	g.BeginSpeculate(root)
	defer func() {
		if recover() == nil {
			t.Fatal("Clone during speculation should panic")
		}
	}()
	g.Clone()
}
