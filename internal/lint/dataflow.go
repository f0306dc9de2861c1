package lint

// A generic worklist fixpoint solver over the CFGs built by cfg.go.
// Analyses supply a transfer function (what one block does to a fact), a
// merge (join at control-flow confluences), and an equality test (fixpoint
// detection); the solver owns iteration order and termination. Facts must
// form a finite-height lattice under merge — lockheld's facts are finite
// sets keyed by syntactic objects, so termination is structural.

// Forward solves a forward dataflow problem: facts flow from a block to
// its successors. entry is the fact at function entry. The returned map
// holds the IN fact of every reachable block; analyzers re-apply their
// transfer node-by-node over a block when they need per-statement facts
// for reporting.
func Forward[F any](g *CFG, entry F,
	transfer func(*Block, F) F, merge func(F, F) F, equal func(F, F) bool) map[*Block]F {

	in := make(map[*Block]F, len(g.Blocks))
	seen := make(map[*Block]bool, len(g.Blocks))
	if len(g.Blocks) == 0 {
		return in
	}
	in[g.Blocks[0]] = entry
	seen[g.Blocks[0]] = true

	work := []*Block{g.Blocks[0]}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		out := transfer(b, in[b])
		for _, s := range b.Succs {
			next := out
			if seen[s] {
				next = merge(in[s], out)
				if equal(next, in[s]) {
					continue
				}
			}
			in[s] = next
			seen[s] = true
			work = append(work, s)
		}
	}
	return in
}
