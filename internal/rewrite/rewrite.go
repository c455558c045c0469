// Package rewrite implements the logic synthesis transformations that
// form the flow alphabet S of the paper: balance, rewrite, refactor,
// restructure, and the zero-cost variants rewrite -z and refactor -z.
// Names and semantics follow the equally named ABC commands:
//
//   - balance:      global AND-tree rebalancing for depth reduction
//   - rewrite:      DAG-aware 4-input-cut rewriting against a factored-form
//     library, accepting positive-gain replacements
//   - rewrite -z:   also accepts zero-gain replacements (perturbs structure
//     to enable later passes)
//   - refactor:     reconvergence-driven large-cut (K=10) collapse, ISOP,
//     algebraic refactoring, accepting positive gain
//   - refactor -z:  zero-gain variant
//   - restructure:  K=8 cut resynthesis accepting area-neutral changes that
//     reduce local depth
//
// All transformations preserve circuit function; tests verify this with
// simulation signatures.
package rewrite

import (
	"fmt"
	"slices"
	"sort"

	"flowgen/internal/aig"
	"flowgen/internal/cut"
	"flowgen/internal/fraig"
	"flowgen/internal/sop"
)

// Transform is a function-preserving synthesis transformation. It returns
// the transformed graph, which may be the input graph modified in place
// and may hold dead nodes and replacement indirections; Step is the one
// place that canonicalizes it. The input graph must not be used
// afterwards.
type Transform func(*aig.AIG) *aig.AIG

// Names lists the canonical transformation names in the order used by the
// paper's experiments: S = {balance, restructure, rewrite, refactor,
// rewrite -z, refactor -z}.
var Names = []string{"balance", "restructure", "rewrite", "refactor", "rewrite -z", "refactor -z"}

// ByName returns the transformation with the given ABC command name.
func ByName(name string) (Transform, error) {
	switch name {
	case "balance", "b":
		return Balance, nil
	case "rewrite", "rw":
		return func(g *aig.AIG) *aig.AIG { return Rewrite(g, false) }, nil
	case "rewrite -z", "rwz":
		return func(g *aig.AIG) *aig.AIG { return Rewrite(g, true) }, nil
	case "refactor", "rf":
		return func(g *aig.AIG) *aig.AIG { return Refactor(g, false) }, nil
	case "refactor -z", "rfz":
		return func(g *aig.AIG) *aig.AIG { return Refactor(g, true) }, nil
	case "restructure", "rs":
		return Restructure, nil
	case "fraig":
		// Extension beyond the paper's alphabet S: simulation-guided,
		// SAT-proven functional reduction (ABC's fraig).
		return func(g *aig.AIG) *aig.AIG {
			out, _ := fraig.Reduce(g, fraig.Options{})
			return out
		}, nil
	}
	return nil, fmt.Errorf("rewrite: unknown transformation %q", name)
}

// Balance rebuilds the graph with depth-balanced AND trees: maximal
// single-fanout conjunction trees are collected and recombined pairing the
// two shallowest operands first, as in ABC's balance command.
func Balance(g *aig.AIG) *aig.AIG {
	g.RecomputeRefs()
	ng := aig.New()
	memo := make(map[int]aig.Lit) // old node id -> new literal (positive)
	memo[0] = aig.ConstFalse
	for i := 0; i < g.NumPIs(); i++ {
		memo[g.PI(i).Node()] = ng.AddInput(g.PIName(i))
	}

	var balNode func(id int) aig.Lit
	// collect gathers the operand literals of the maximal AND tree rooted
	// at id: a fanin is expanded when it is a non-complemented AND edge
	// with a single fanout (so merging it loses no sharing).
	var collect func(l aig.Lit, ops *[]aig.Lit)
	collect = func(l aig.Lit, ops *[]aig.Lit) {
		n := l.Node()
		if !l.IsNeg() && g.IsAnd(n) && g.Ref(n) == 1 {
			collect(g.Fanin0(n), ops)
			collect(g.Fanin1(n), ops)
			return
		}
		nl := balNode(n)
		*ops = append(*ops, nl.NotIf(l.IsNeg()))
	}
	balNode = func(id int) aig.Lit {
		if l, ok := memo[id]; ok {
			return l
		}
		var ops []aig.Lit
		collect(g.Fanin0(id), &ops)
		collect(g.Fanin1(id), &ops)
		// Pair the two shallowest operands repeatedly.
		for len(ops) > 1 {
			sort.SliceStable(ops, func(i, j int) bool {
				return ng.Level(ops[i].Node()) < ng.Level(ops[j].Node())
			})
			nl := ng.And(ops[0], ops[1])
			ops = append(ops[2:], nl)
		}
		memo[id] = ops[0]
		return ops[0]
	}

	for i := 0; i < g.NumPOs(); i++ {
		l := g.PO(i)
		nl := balNode(l.Node())
		ng.AddOutput(nl.NotIf(l.IsNeg()), g.POName(i))
	}
	ng.RecomputeLevels()
	ng.RecomputeRefs()
	return ng
}

// libEntry caches the factored implementation of a 4-variable function.
type libEntry struct {
	expr *sop.Expr
	inv  bool
}

// factorLib caches factored forms by 16-bit truth table. Each Rewrite
// call owns its map (passes run concurrently on different graphs).
type factorLib map[uint16]libEntry

func (lib factorLib) get(tt16 uint16, f func() (*sop.Expr, bool)) libEntry {
	if e, ok := lib[tt16]; ok {
		return e
	}
	expr, inv := f()
	e := libEntry{expr, inv}
	lib[tt16] = e
	return e
}

// Rewrite performs DAG-aware cut rewriting with 4-input cuts: for every
// node, each cut function's pre-factored implementation is speculatively
// built and the replacement with the best positive gain (node count
// decrease) is committed. With zero true, zero-gain replacements that
// change structure are also accepted.
func Rewrite(g *aig.AIG, zero bool) *aig.AIG {
	g.RecomputeRefs()
	g.RecomputeLevels()
	cuts := cut.Enumerate(g, 4, 8)
	lib := make(factorLib, 256)
	ids := g.LiveAnds()
	var scratch []aig.Lit // leaf-literal buffer reused across candidates

	for _, id := range ids {
		if !g.IsAnd(id) || g.Ref(id) == 0 {
			continue
		}
		if aig.MakeLit(id, false) != g.Resolve(aig.MakeLit(id, false)) {
			continue // node was replaced earlier in this pass
		}
		type cand struct {
			gain    int
			cutIdx  int
			changed bool
		}
		best := cand{gain: -1 << 30}
		nodeCuts := cuts.Cuts[id]
		for ci := range nodeCuts {
			c := &nodeCuts[ci]
			if len(c.Leaves) < 2 || !leavesUsable(g, id, c.Leaves) {
				continue
			}
			tt16 := uint16(c.TT.Words()[0] & 0xFFFF)
			e := lib.get(tt16, func() (*sop.Expr, bool) { return sop.FactorTT(c.TT) })
			freed := g.BeginSpeculate(id)
			newLit := buildLeaves(g, e, c.Leaves, &scratch)
			if newLit.Node() == id {
				g.AbortSpeculate(id)
				continue
			}
			g.Touch(newLit)
			gain := g.SpeculationGain(freed)
			changed := g.SpeculativeCreated() > 0 || newLit.Node() != id
			g.AbortSpeculate(id)
			if gain > best.gain {
				best = cand{gain: gain, cutIdx: ci, changed: changed}
			}
		}
		accept := best.gain > 0 || (zero && best.gain == 0 && best.changed)
		if best.gain == -1<<30 || !accept {
			continue
		}
		c := &nodeCuts[best.cutIdx]
		tt16 := uint16(c.TT.Words()[0] & 0xFFFF)
		e := lib.get(tt16, func() (*sop.Expr, bool) { return sop.FactorTT(c.TT) })
		freed := g.BeginSpeculate(id)
		newLit := buildLeaves(g, e, c.Leaves, &scratch)
		if newLit.Node() == id {
			g.AbortSpeculate(id)
			continue
		}
		g.Touch(newLit)
		if gain := g.SpeculationGain(freed); gain > 0 || (zero && gain == 0) {
			g.CommitSpeculate(id, newLit)
		} else {
			g.AbortSpeculate(id)
		}
	}
	return g
}

// leavesUsable reports whether every cut leaf is still a usable basis for
// resynthesis of root: alive (or PI/const), not itself replaced, and not
// the root.
func leavesUsable(g *aig.AIG, root int, leaves []int) bool {
	for _, l := range leaves {
		if l == root {
			return false
		}
		if g.IsAnd(l) {
			if g.Ref(l) == 0 {
				return false
			}
			if aig.MakeLit(l, false) != g.Resolve(aig.MakeLit(l, false)) {
				return false
			}
		}
	}
	return true
}

// buildLeaves constructs the factored expression over cut leaves in g and
// returns the output literal, honoring the inversion flag. scratch is a
// pass-owned buffer reused across candidates (sop.BuildAIG does not
// retain the slice), which keeps the per-cut inner loop allocation-free.
func buildLeaves(g *aig.AIG, e libEntry, leaves []int, scratch *[]aig.Lit) aig.Lit {
	lits := (*scratch)[:0]
	for _, l := range leaves {
		lits = append(lits, aig.MakeLit(l, false))
	}
	*scratch = lits
	return sop.BuildAIG(g, e.expr, lits).NotIf(e.inv)
}

// Refactor performs reconvergence-driven refactoring: for each node a
// cut of up to K=10 leaves is computed, the cone function is collapsed to
// a truth table, refactored algebraically, and rebuilt if it reduces the
// node count (or keeps it equal, with zero true).
func Refactor(g *aig.AIG, zero bool) *aig.AIG {
	return refactorK(g, zero, 10, false)
}

// Restructure is cut-based resynthesis with K=8 cuts that targets depth:
// a rebuilt cone is accepted when it reduces node count, or keeps the
// count while reducing the cone's local depth.
func Restructure(g *aig.AIG) *aig.AIG {
	return refactorK(g, false, 8, true)
}

// coneCacheEntry caches the factored form of a cone function within one
// refactoring pass. Structured circuits (adder grids, S-box arrays)
// repeat cone functions heavily, making the cache highly effective.
type coneCacheEntry struct {
	expr *sop.Expr
	inv  bool
}

// maxConeVars bounds refactorK's cut size: coneKey holds a table of up
// to 2^10 bits.
const maxConeVars = 10

// coneKey identifies a cone function: its leaf count and truth table.
type coneKey struct {
	nvars int
	w     [1 << (maxConeVars - 6)]uint64
}

func refactorK(g *aig.AIG, zero bool, k int, depthAware bool) *aig.AIG {
	if k > maxConeVars {
		panic(fmt.Sprintf("rewrite: refactoring cut size %d above %d", k, maxConeVars))
	}
	g.RecomputeRefs()
	g.RecomputeLevels()
	cache := make(map[coneKey]coneCacheEntry)
	ids := g.LiveAnds()
	var cones cut.Cones
	var lits []aig.Lit // leaf-literal buffer reused across cones
	for _, id := range ids {
		if !g.IsAnd(id) || g.Ref(id) == 0 {
			continue
		}
		if aig.MakeLit(id, false) != g.Resolve(aig.MakeLit(id, false)) {
			continue
		}
		// Nodes whose cone frees fewer than 2 nodes cannot yield positive
		// gain except by pure sharing; skipping them saves most of the
		// pass runtime (ABC's refactoring applies similar filtering).
		if g.MFFCSize(id) < 2 {
			continue
		}
		leaves := cones.ReconvCut(g, id, k)
		if len(leaves) < 3 || slices.Contains(leaves, id) {
			continue
		}
		tt, ok := cones.ConeTT(g, id, leaves)
		if !ok {
			continue
		}
		ck := coneKey{nvars: len(leaves)}
		copy(ck.w[:], tt.Words())
		e, hit := cache[ck]
		if !hit {
			e.expr, e.inv = sop.FactorTTFast(tt)
			cache[ck] = e
		}
		oldLevel := g.Level(id)
		freed := g.BeginSpeculate(id)
		lits = lits[:0]
		for _, l := range leaves {
			lits = append(lits, aig.MakeLit(l, false))
		}
		newLit := sop.BuildAIG(g, e.expr, lits).NotIf(e.inv)
		if newLit.Node() == id {
			g.AbortSpeculate(id)
			continue
		}
		g.Touch(newLit)
		gain := g.SpeculationGain(freed)
		newLevel := g.Level(newLit.Node())
		accept := gain > 0 ||
			(zero && gain == 0) ||
			(depthAware && gain == 0 && newLevel < oldLevel)
		if accept {
			g.CommitSpeculate(id, newLit)
		} else {
			g.AbortSpeculate(id)
		}
	}
	return g
}

// Apply runs the named transformations in sequence and returns the final
// graph along with per-step statistics.
//
// After every transformation the graph is renumbered into Cleanup's
// DFS-canonical form. Transformations are deterministic functions of the
// concrete representation (node numbering included), so canonicalizing
// each intermediate state makes structurally identical states
// representation-identical regardless of which transformation produced
// them; the prefix-memoized evaluation engine (internal/synth) relies on
// this to merge convergent flows under aig.StructuralFingerprint, and
// every other Apply caller gets the same flow semantics.
func Apply(g *aig.AIG, names []string) (*aig.AIG, []aig.Stats, error) {
	stats := make([]aig.Stats, 0, len(names))
	for _, n := range names {
		t, err := ByName(n)
		if err != nil {
			return nil, nil, err
		}
		g = Step(t, g)
		stats = append(stats, g.Stats())
	}
	return g, stats, nil
}

// Step applies one transformation and canonicalizes the result. This is
// the unit of flow execution shared by Apply and the memoized batch
// evaluator; both must use it so their intermediate states coincide
// bit-for-bit.
func Step(t Transform, g *aig.AIG) *aig.AIG {
	return t(g).Cleanup()
}
