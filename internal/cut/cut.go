// Package cut computes k-feasible cuts of AIG nodes, their local truth
// tables, and reconvergence-driven cuts. It is the shared engine used by
// rewriting (4-input cuts), restructuring (8-input reconvergence cuts),
// refactoring (10-input reconvergence cuts) and technology mapping,
// mirroring ABC's cut manager.
package cut

import (
	"slices"
	"sort"

	"flowgen/internal/aig"
	"flowgen/internal/bitvec"
)

// Cut is a k-feasible cut of a node: a set of leaf nodes such that every
// path from a primary input to the node passes through a leaf, together
// with the node function expressed over the leaves (leaf i is variable i).
type Cut struct {
	Leaves []int     // node ids, sorted ascending
	TT     bitvec.TT // function of the (positive) root literal over Leaves
	sig    uint64    // leaf membership signature for fast dominance checks
}

func signature(leaves []int) uint64 {
	var s uint64
	for _, l := range leaves {
		s |= 1 << (uint(l) & 63)
	}
	return s
}

// dominates reports whether a's leaves are a subset of b's.
func dominates(a, b *Cut) bool {
	if len(a.Leaves) > len(b.Leaves) || a.sig&^b.sig != 0 {
		return false
	}
	i, j := 0, 0
	for i < len(a.Leaves) && j < len(b.Leaves) {
		switch {
		case a.Leaves[i] == b.Leaves[j]:
			i++
			j++
		case a.Leaves[i] > b.Leaves[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a.Leaves)
}

// mergeLeaves unions two sorted leaf lists into out[:0], returning nil
// if the result exceeds k leaves.
func mergeLeaves(out, a, b []int, k int) []int {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v int
		switch {
		case i >= len(a):
			v = b[j]
			j++
		case j >= len(b):
			v = a[i]
			i++
		case a[i] < b[j]:
			v = a[i]
			i++
		case a[i] > b[j]:
			v = b[j]
			j++
		default:
			v = a[i]
			i++
			j++
		}
		if len(out) == k {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// expandTT lifts a child cut function onto the merged leaf set. Cut
// functions are stored over k variables but depend only on the first
// len(Leaves) of them; child leaf i becomes variable perm[i], its
// position in the merged set. Enumerate stretches one-word tables (k <=
// 6) itself with bitvec.StretchWord; wider ones shrink to the leaf count
// and expand minterm by minterm.
func expandTT(child *Cut, perm []int, k int) bitvec.TT {
	ident := make([]int, len(perm))
	for i := range ident {
		ident[i] = i
	}
	return bitvec.Expand(bitvec.Shrink(child.TT, ident), k, perm)
}

// positions writes into buf the index in merged of each of the child's
// leaves.
func positions(child *Cut, merged []int, buf *[16]int) []int {
	p := buf[:len(child.Leaves)]
	for i, l := range child.Leaves {
		p[i] = sort.SearchInts(merged, l)
	}
	return p
}

// Set holds the enumerated cuts of every live node of a graph.
type Set struct {
	K       int
	MaxCuts int
	Cuts    [][]Cut // indexed by node id (first cut is the trivial cut)
}

// arena hands out the leaf lists and one-word tables of a Set's cuts
// from chunks, so a cut costs no allocation of its own.
type arena struct {
	ints  []int
	words []uint64
}

const arenaChunk = 4096

func (a *arena) leaves(src []int) []int {
	if len(a.ints)+len(src) > cap(a.ints) {
		a.ints = make([]int, 0, max(arenaChunk, len(src)))
	}
	n := len(a.ints)
	a.ints = append(a.ints, src...)
	return a.ints[n:len(a.ints):len(a.ints)]
}

func (a *arena) word(k int, w uint64) bitvec.TT {
	if len(a.words) == cap(a.words) {
		a.words = make([]uint64, 0, arenaChunk)
	}
	a.words = append(a.words, w)
	n := len(a.words)
	return bitvec.FromWords(k, a.words[n-1:n:n])
}

// Enumerate computes up to maxCuts k-feasible cuts (with truth tables) for
// every live AND node of g. Each node also receives its trivial cut
// {node}. Dominated cuts are pruned.
func Enumerate(g *aig.AIG, k, maxCuts int) *Set {
	s := &Set{K: k, MaxCuts: maxCuts, Cuts: make([][]Cut, g.NumNodesRaw())}
	var mem arena
	var buf [16]int          // merged leaves of the candidate cut
	var perm0, perm1 [16]int // the fanin cuts' leaf positions in buf
	trivial := func(id int) Cut {
		buf[0] = id
		c := Cut{Leaves: mem.leaves(buf[:1]), sig: signature(buf[:1])}
		if k <= 6 {
			c.TT = mem.word(k, bitvec.VarWord(0))
		} else {
			c.TT = bitvec.Var(k, 0)
		}
		return c
	}
	cutsOf := func(l aig.Lit) []Cut {
		id := l.Node()
		if cs := s.Cuts[id]; cs != nil {
			return cs
		}
		// PIs (and constants) have only the trivial cut.
		c := []Cut{trivial(id)}
		s.Cuts[id] = c
		return c
	}
	g.ForEachLiveAnd(func(id int) {
		f0, f1 := g.Fanin0(id), g.Fanin1(id)
		c0s, c1s := cutsOf(f0), cutsOf(f1)
		out := make([]Cut, 1, maxCuts+1)
		out[0] = trivial(id)
		for i0 := range c0s {
			for i1 := range c1s {
				c0, c1 := &c0s[i0], &c1s[i1]
				leaves := mergeLeaves(buf[:0], c0.Leaves, c1.Leaves, k)
				if leaves == nil {
					continue
				}
				nc := Cut{Leaves: leaves, sig: signature(leaves)}
				if dominated(out, &nc) {
					continue
				}
				nc.Leaves = mem.leaves(leaves)
				p0, p1 := positions(c0, leaves, &perm0), positions(c1, leaves, &perm1)
				if k <= 6 {
					w0 := bitvec.StretchWord(c0.TT.Words()[0], p0)
					if f0.IsNeg() {
						w0 = ^w0
					}
					w1 := bitvec.StretchWord(c1.TT.Words()[0], p1)
					if f1.IsNeg() {
						w1 = ^w1
					}
					nc.TT = mem.word(k, w0&w1)
				} else {
					t0, t1 := expandTT(c0, p0, k), expandTT(c1, p1, k)
					if f0.IsNeg() {
						t0 = bitvec.Not(t0)
					}
					if f1.IsNeg() {
						t1 = bitvec.Not(t1)
					}
					nc.TT = bitvec.And(t0, t1)
				}
				out = insertCut(out, nc)
				if len(out) >= maxCuts {
					break
				}
			}
			if len(out) >= maxCuts {
				break
			}
		}
		s.Cuts[id] = out
	})
	return s
}

// dominated reports whether a cut of set dominates nc.
func dominated(set []Cut, nc *Cut) bool {
	for i := range set {
		if dominates(&set[i], nc) {
			return true
		}
	}
	return false
}

// insertCut appends nc to set after removing the cuts nc dominates. The
// caller has checked that no cut of set dominates nc.
func insertCut(set []Cut, nc Cut) []Cut {
	kept := set[:0]
	for i := range set {
		if !dominates(&nc, &set[i]) {
			kept = append(kept, set[i])
		}
	}
	return append(kept, nc)
}

// Cones computes reconvergence-driven cuts and cone truth tables in
// reusable working memory: node marks and table slots in slices indexed
// by node id, and the cone's tables in one word slice. A pass owns one
// and reuses it for every node it visits, so neither call allocates once
// the slices have grown to the graph; passes that run concurrently on
// different graphs each own theirs. The zero value is ready to use.
// Results returned by its methods alias it and stay valid until the next
// call of the same method.
type Cones struct {
	stamp  uint32
	cone   []uint32 // == stamp: node is inside the current cone
	leaf   []uint32 // == stamp: node is a leaf of the current cut
	slot   []int32  // ConeTT's table slot of a leaf or interior node
	leaves []int    // ReconvCut's leaves, ascending
	order  []int    // coneNodes' interior nodes, topological
	words  []uint64 // ConeTT's tables, WordsFor(len(leaves)) words per slot
}

// begin starts a call on g: a fresh stamp invalidates every mark of the
// previous call.
func (c *Cones) begin(g *aig.AIG) {
	if n := g.NumNodesRaw(); len(c.cone) < n {
		n = max(n, 2*len(c.cone)) // passes add nodes as they go
		c.cone = make([]uint32, n)
		c.leaf = make([]uint32, n)
		c.slot = make([]int32, n)
		c.stamp = 0
	}
	c.stamp++
	if c.stamp == 0 { // wrapped: old marks could read as current
		clear(c.cone)
		clear(c.leaf)
		c.stamp = 1
	}
}

// ReconvCut grows a reconvergence-driven cut of root with at most k
// leaves, in the style of ABC's reconvergence-driven cut computation:
// starting from the fanins of root, it repeatedly expands the leaf whose
// expansion increases the leaf count the least (preferring reconvergent
// expansions that shrink the cut). It returns the leaves in ascending
// order.
func (c *Cones) ReconvCut(g *aig.AIG, root int, k int) []int {
	c.begin(g)
	c.leaves = c.leaves[:0]
	if !g.IsAnd(root) {
		c.leaves = append(c.leaves, root)
		return c.leaves
	}
	c.cone[root] = c.stamp
	c.addLeaf(g.Fanin0(root).Node())
	c.addLeaf(g.Fanin1(root).Node())
	for {
		// Expanding a leaf removes it and adds its fanins that are neither
		// leaves nor inside the cone. Candidates are scanned in ascending
		// node-id order and the first cheapest wins, so tie-breaking is
		// deterministic.
		best, bestCost := -1, 3
		for i, l := range c.leaves {
			if !g.IsAnd(l) {
				continue
			}
			delta := -1
			for _, f := range [2]aig.Lit{g.Fanin0(l), g.Fanin1(l)} {
				if n := f.Node(); c.leaf[n] != c.stamp && c.cone[n] != c.stamp {
					delta++
				}
			}
			if delta < bestCost {
				best, bestCost = i, delta
			}
		}
		if best < 0 || len(c.leaves)+bestCost > k {
			break
		}
		id := c.leaves[best]
		c.leaves = slices.Delete(c.leaves, best, best+1)
		c.leaf[id] = 0
		c.cone[id] = c.stamp
		for _, f := range [2]aig.Lit{g.Fanin0(id), g.Fanin1(id)} {
			if n := f.Node(); c.cone[n] != c.stamp {
				c.addLeaf(n)
			}
		}
	}
	return c.leaves
}

// addLeaf inserts id into the sorted leaf list unless it is already there.
func (c *Cones) addLeaf(id int) {
	if c.leaf[id] == c.stamp {
		return
	}
	c.leaf[id] = c.stamp
	i, _ := slices.BinarySearch(c.leaves, id)
	c.leaves = slices.Insert(c.leaves, i, id)
}

// coneNodes returns the interior AND nodes of the cone of root bounded
// by leaves, in topological order (root last), or nil if the cone is not
// bounded by the leaves (should not happen for valid cuts). It gives
// each leaf and interior node its ConeTT slot: leaf i slot i, interior
// nodes after.
func (c *Cones) coneNodes(g *aig.AIG, root int, leaves []int) []int {
	c.begin(g)
	for i, l := range leaves {
		c.leaf[l] = c.stamp
		c.slot[l] = int32(i)
	}
	c.order = c.order[:0]
	if !c.visit(g, root, len(leaves)) || len(c.order) == 0 {
		return nil
	}
	return c.order
}

func (c *Cones) visit(g *aig.AIG, id, nleaves int) bool {
	if c.leaf[id] == c.stamp || c.cone[id] == c.stamp {
		return true
	}
	if !g.IsAnd(id) {
		return false // hit a PI that is not a leaf: unbounded
	}
	c.cone[id] = c.stamp
	if !c.visit(g, g.Fanin0(id).Node(), nleaves) || !c.visit(g, g.Fanin1(id).Node(), nleaves) {
		return false
	}
	c.slot[id] = int32(nleaves + len(c.order))
	c.order = append(c.order, id)
	return true
}

// ConeTT computes the truth table of root (positive literal) over the cut
// leaves: leaf i is variable i. The cone must be bounded by the leaves.
// Returns the table, which aliases c, and true, or a zero table and
// false if unbounded.
func (c *Cones) ConeTT(g *aig.AIG, root int, leaves []int) (bitvec.TT, bool) {
	interior := c.coneNodes(g, root, leaves)
	if interior == nil {
		return bitvec.TT{}, false
	}
	k := len(leaves)
	nw := bitvec.WordsFor(k)
	if need := (k + len(interior)) * nw; cap(c.words) < need {
		c.words = make([]uint64, need)
	}
	words := c.words[:(k+len(interior))*nw]
	for i := range leaves {
		setVar(words[i*nw:(i+1)*nw], i)
	}
	mask := ^uint64(0)
	if k < 6 {
		mask = uint64(1)<<(uint(1)<<uint(k)) - 1
	}
	for j, id := range interior {
		f0, f1 := g.Fanin0(id), g.Fanin1(id)
		a := int(c.slot[f0.Node()]) * nw
		b := int(c.slot[f1.Node()]) * nw
		var na, nb uint64
		if f0.IsNeg() {
			na = ^uint64(0)
		}
		if f1.IsNeg() {
			nb = ^uint64(0)
		}
		out := words[(k+j)*nw : (k+j+1)*nw]
		for w := range out {
			out[w] = (words[a+w] ^ na) & (words[b+w] ^ nb) & mask
		}
	}
	r := k + len(interior) - 1
	return bitvec.FromWords(k, words[r*nw:(r+1)*nw]), true
}

// setVar writes the table of variable i into w.
func setVar(w []uint64, i int) {
	if i < 6 {
		for j := range w {
			w[j] = bitvec.VarWord(i)
		}
		return
	}
	block := 1 << (i - 6)
	for j := range w {
		w[j] = 0
		if j&block != 0 {
			w[j] = ^uint64(0)
		}
	}
}
