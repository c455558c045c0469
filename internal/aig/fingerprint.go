// Fingerprinting and exact replication support for the prefix-memoized
// evaluation engine (internal/synth): intermediate graphs are keyed by a
// structural fingerprint so that convergent transformation prefixes —
// different flows that reach the same graph — share downstream work, and
// cached graphs are handed to multiple consumers via bit-exact clones.
package aig

// Clone returns a bit-exact replica of the graph: node array, PI/PO
// lists, names, replacement table and structural-hash table are all
// copied verbatim, so every deterministic transformation behaves
// identically on the clone and the original. This is stronger than
// Cleanup (which renumbers nodes into DFS order): a clone of any graph,
// compact or not, is indistinguishable from the original to all
// subsequent operations. Clone must not be called during speculation.
//
// Clone only reads the receiver (no path compression, no ref updates),
// so concurrent Clones of one graph are safe as long as nobody mutates
// it at the same time.
func (g *AIG) Clone() *AIG {
	if g.speculating {
		panic("aig: Clone during speculation")
	}
	ng := &AIG{
		nodes:     append([]node(nil), g.nodes...),
		pis:       append([]int(nil), g.pis...),
		pos:       append([]Lit(nil), g.pos...),
		piNames:   append([]string(nil), g.piNames...),
		poNames:   append([]string(nil), g.poNames...),
		repl:      append([]Lit(nil), g.repl...),
		touchNode: g.touchNode,
	}
	if g.strash != nil {
		ng.strash = make(map[strashKey]int, len(g.strash))
		for k, v := range g.strash {
			ng.strash[k] = v
		}
	}
	return ng
}

// Fingerprint is a 128-bit structural hash of a graph representation.
type Fingerprint [2]uint64

// FNV-1a constants, plus an independent second lane so the combined
// fingerprint is 128 bits wide (batch evaluation touches ~10^4 distinct
// intermediate graphs; a 64-bit hash would already make collisions
// vanishingly unlikely, 128 bits makes them unreachable).
const (
	fnvOffset  = 0xcbf29ce484222325
	fnvPrime   = 0x100000001b3
	fnv2Offset = 0x6c62272e07bb0142
)

// StructuralFingerprint hashes the exact representation of the graph:
// node kinds, fanin literals, and primary-output literals. Two graphs
// with equal fingerprints are (up to hash collision) represented
// identically, which — because every synthesis transformation is a
// deterministic function of the representation — means their entire
// downstream evaluation is identical. This is the property the
// prefix-memoized engine relies on; it is strictly stronger than the
// functional equivalence certified by SimSignature (two functionally
// equivalent graphs with different structure may still diverge under
// further transformations, so simulation signatures alone cannot key a
// transformation cache).
//
// The hash covers live and dead nodes alike; it is intended for
// canonical graphs as produced by Cleanup (every rewrite.Step ends in
// one), where the representation itself is a deterministic function of
// the logic.
func (g *AIG) StructuralFingerprint() Fingerprint {
	h1 := uint64(fnvOffset)
	h2 := uint64(fnv2Offset)
	mix := func(v uint64) {
		h1 = (h1 ^ v) * fnvPrime
		h2 = (h2 ^ (v + 0x9e3779b97f4a7c15)) * fnvPrime
		h2 ^= h2 >> 29
	}
	mix(uint64(len(g.nodes)))
	mix(uint64(len(g.pis)))
	for i := range g.nodes {
		n := &g.nodes[i]
		mix(uint64(n.kind))
		if n.kind == KindAnd {
			mix(uint64(n.f0))
			mix(uint64(n.f1))
		}
	}
	mix(uint64(len(g.pos)))
	for _, po := range g.pos {
		mix(uint64(po))
	}
	return Fingerprint{h1, h2}
}
