// Package dataflow is geolint's forward dataflow framework: a worklist
// fixpoint over an internal/lint/cfg graph that analyzers program
// against instead of hand-rolling their own traversals.
//
// An analyzer states its problem as a lattice (Join, Equal) and a
// transfer function applied to each node of a basic block in order.
//
// The framework is a may-analysis as used here (facts join by union
// and the interesting question is "can a bad state reach Exit?"), but
// nothing in it assumes that: any finite-height lattice with a
// monotone transfer terminates.
package dataflow

import (
	"go/ast"

	"geofootprint/internal/lint/cfg"
)

// Problem describes one forward dataflow analysis over facts of type F.
// F values must be treated as immutable: Transfer returns a fresh fact when they change anything (sharing unchanged facts is
// fine and keeps small functions allocation-light).
type Problem[F any] struct {
	// Entry is the fact at function entry.
	Entry F
	// Join merges facts at control-flow merges. It must be
	// commutative, associative and idempotent.
	Join func(a, b F) F
	// Equal reports fact equality; the fixpoint stops when no block's
	// input fact changes under Join.
	Equal func(a, b F) bool
	// Transfer applies one block node (a statement or an evaluated
	// condition expression) to the fact.
	Transfer func(n ast.Node, f F) F
}

// Result holds the fixpoint solution, indexed by cfg.Block.Index.
type Result[F any] struct {
	// In and Out are the facts at block entry and exit. Only valid
	// where Reached is true.
	In, Out []F
	// Reached marks blocks reachable from entry (identical to graph
	// reachability: transfer never prunes edges).
	Reached []bool
	g       *cfg.CFG
}

// ExitFact returns the joined fact over every edge into the Exit block
// — the "what can be true at some return" answer — and whether any
// exit is reachable at all (false for functions that cannot return,
// e.g. an unconditional `for {}`).
func (r *Result[F]) ExitFact(p Problem[F]) (F, bool) {
	var out F
	have := false
	for _, pred := range r.g.Exit.Preds {
		if !r.Reached[pred.Index] {
			continue
		}
		f := r.Out[pred.Index]
		if !have {
			out, have = f, true
		} else {
			out = p.Join(out, f)
		}
	}
	return out, have
}

// Forward solves the problem to fixpoint and returns the solution.
func Forward[F any](g *cfg.CFG, p Problem[F]) *Result[F] {
	n := len(g.Blocks)
	r := &Result[F]{
		In:      make([]F, n),
		Out:     make([]F, n),
		Reached: make([]bool, n),
		g:       g,
	}
	if n == 0 {
		return r
	}
	entry := g.Blocks[0]
	r.In[entry.Index] = p.Entry
	r.Reached[entry.Index] = true

	// Worklist of block indexes; inQueue dedupes.
	queue := []int{entry.Index}
	inQueue := make([]bool, n)
	inQueue[entry.Index] = true

	for len(queue) > 0 {
		bi := queue[0]
		queue = queue[1:]
		inQueue[bi] = false
		blk := g.Blocks[bi]

		f := r.In[bi]
		for _, node := range blk.Nodes {
			f = p.Transfer(node, f)
		}
		r.Out[bi] = f

		for _, succ := range blk.Succs {
			si := succ.Index
			if !r.Reached[si] {
				r.Reached[si] = true
				r.In[si] = f
			} else {
				joined := p.Join(r.In[si], f)
				if p.Equal(joined, r.In[si]) {
					continue
				}
				r.In[si] = joined
			}
			if !inQueue[si] {
				inQueue[si] = true
				queue = append(queue, si)
			}
		}
	}
	return r
}
