package kcut

import (
	"slices"

	"relsyn/internal/aig"
)

// Cut is a cut of an AIG node: its leaf set and the data the
// enumerating caller derives with it.
type Cut[T any] struct {
	Leaves Leaves
	Data   T
}

// Enumerate computes every node's cuts bottom-up over g. A primary input
// i has the one cut trivial(i). An AND node's candidates are merge(c0,
// c1, f0, f1) for each cut c0 of fanin f0 and c1 of fanin f1, in that
// order, where merge reports false for a candidate it rejects; Rank
// reduces them, with filter, to at most maxCuts. After them the node
// holds trivial(i), which feeds its parents' merges but is left out of
// the returned set. Every node's cuts live in one backing array sized
// once, so the returned sets stay put and callers can point into them.
// poll (nil = never) is checked every PollStride nodes; a non-nil return
// aborts the enumeration with that error.
func Enumerate[T any](g *aig.Graph, maxCuts int, trivial func(node int) Cut[T],
	merge func(c0, c1 Cut[T], f0, f1 aig.Lit) (Cut[T], bool), filter func(cands, out []Cut[T]) []Cut[T],
	poll func() error) ([][]Cut[T], error) {
	total := 1 + g.NumPI() + g.NumNodes()
	// A fanin holds at most maxCuts+1 cuts, so a node at most
	// (maxCuts+1)² candidates, all of which filter may keep before Rank
	// truncates them.
	maxCands := (maxCuts + 1) * (maxCuts + 1)
	// Node i's cuts, its trivial cut last, are all[start[i]:start[i+1]].
	all := make([]Cut[T], 0, g.NumPI()+(maxCuts+1)*g.NumNodes()+maxCands)
	start := make([]int, total+1)
	for i := 1; i <= g.NumPI(); i++ {
		start[i] = len(all)
		all = append(all, trivial(i))
	}
	cands := make([]Cut[T], 0, maxCands)
	for i := g.NumPI() + 1; i < total; i++ {
		if err := CheckPoll(poll, i); err != nil {
			return nil, err
		}
		start[i] = len(all)
		f0, f1 := g.Fanins(i)
		n0, n1 := f0.Node(), f1.Node()
		cands = cands[:0]
		for _, c0 := range all[start[n0]:start[n0+1]] {
			for _, c1 := range all[start[n1]:start[n1+1]] {
				if c, ok := merge(c0, c1, f0, f1); ok {
					cands = append(cands, c)
				}
			}
		}
		all = append(Rank(cands, all, filter, maxCuts), trivial(i))
	}
	start[total] = len(all)
	cuts := make([][]Cut[T], total)
	for i := 1; i < total; i++ {
		end := start[i+1]
		if i > g.NumPI() {
			end-- // the AND node's trivial cut
		}
		cuts[i] = all[start[i]:end:end]
	}
	return cuts, nil
}

// Rank appends to out the cuts one node keeps of its candidates: those
// filter(cands, out) appends to out, which must have distinct leaf sets,
// sorted by Compare and cut to the first maxCuts. filter may reorder
// cands.
func Rank[T any](cands, out []Cut[T], filter func(cands, out []Cut[T]) []Cut[T], maxCuts int) []Cut[T] {
	base := len(out)
	out = filter(cands, out)
	slices.SortFunc(out[base:], func(a, b Cut[T]) int { return Compare(a.Leaves, b.Leaves) })
	return out[:base+min(len(out)-base, maxCuts)]
}

// PollStride is how many AIG nodes the per-node passes visit between
// polls.
const PollStride = 256

// CheckPoll calls poll (nil = never) once every PollStride nodes.
func CheckPoll(poll func() error, node int) error {
	if poll == nil || node%PollStride != 0 {
		return nil
	}
	return poll()
}
