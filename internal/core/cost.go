package core

import (
	"fmt"

	"repro/internal/plan"
)

// Saturating cost arithmetic lives with the operator IR; the analyzer
// shares it so derivation costs and plan bounds never diverge.
const costCap = plan.CostCap

func satAdd(a, b int64) int64 { return plan.SatAdd(a, b) }
func satMul(a, b int64) int64 { return plan.SatMul(a, b) }

// Cost is the static bound a derivation (or its compiled physical plan)
// guarantees, expressed in the N-values of the access schema (Theorem
// 4.2's "time that depends only on A and Q"): Candidates bounds the
// number of candidate bindings, Reads bounds the number of tuples fetched
// from the store. Both are independent of |D| by construction. It is the
// operator IR's cost type; the analyzer uses it to rank derivations
// before compilation.
type Cost = plan.Cost

// CostOf computes the static bound of a derivation by structural
// induction, mirroring the proof of Theorem 4.2. It equals the Bound of
// the derivation's 1:1 compiled operator plan (compile_test pins this);
// an optimized plan may carry a tighter bound.
func CostOf(d *Derivation) Cost {
	switch d.Rule {
	case RuleAtom:
		n := int64(d.Entry.N)
		return Cost{Candidates: n, Reads: n}
	case RuleConditions:
		return Cost{Candidates: 1, Reads: 0}
	case RuleConj:
		c0, c1 := CostOf(d.Children[0]), CostOf(d.Children[1])
		return Cost{
			Candidates: plan.SatMul(c0.Candidates, c1.Candidates),
			Reads:      plan.SatAdd(c0.Reads, plan.SatMul(c0.Candidates, c1.Reads)),
		}
	case RuleDisj:
		c0, c1 := CostOf(d.Children[0]), CostOf(d.Children[1])
		return Cost{
			Candidates: plan.SatAdd(c0.Candidates, c1.Candidates),
			Reads:      plan.SatAdd(c0.Reads, c1.Reads),
		}
	case RuleSafeNeg:
		c0, c1 := CostOf(d.Children[0]), CostOf(d.Children[1])
		return Cost{
			Candidates: c0.Candidates,
			Reads:      plan.SatAdd(c0.Reads, plan.SatMul(c0.Candidates, c1.Reads)),
		}
	case RuleExists:
		return CostOf(d.Children[0])
	case RuleForall:
		c0, c1 := CostOf(d.Children[0]), CostOf(d.Children[1])
		return Cost{
			Candidates: 1,
			Reads:      plan.SatAdd(c0.Reads, plan.SatMul(c0.Candidates, c1.Reads)),
		}
	case RuleEmbedded:
		return chaseCost(d.Chase)
	default:
		panic(fmt.Sprintf("core: CostOf unknown rule %q", d.Rule))
	}
}

func chaseCost(p *plan.ChaseExec) Cost {
	cands, reads := int64(1), int64(0)
	for _, s := range p.Steps {
		if s.Atom == nil {
			continue // equality propagation is free
		}
		n := int64(s.Entry.N)
		reads = plan.SatAdd(reads, plan.SatMul(cands, n))
		if len(s.Binds) > 0 {
			cands = plan.SatMul(cands, n)
		}
	}
	// One membership probe per candidate per membership-verified atom.
	reads = plan.SatAdd(reads, plan.SatMul(cands, int64(len(p.MembershipAtoms))))
	return Cost{Candidates: cands, Reads: reads}
}
