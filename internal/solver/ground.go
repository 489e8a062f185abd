// Package solver computes the stable models (answer sets) of logic
// programs: the clingo substitute of the framework. It grounds a
// logic.Program with a semi-naive instantiator and solves the ground
// program with a DPLL search over the Clark completion, lazily adding
// loop formulas for unfounded sets, plus branch-and-bound optimization
// for #minimize statements.
package solver

import (
	"fmt"
	"sort"
	"strings"

	"cpsrisk/internal/logic"
)

// AtomID identifies a ground atom in a GroundProgram. IDs start at 1.
type AtomID int

// RuleKind distinguishes ground rule forms.
type RuleKind int

// Ground rule kinds.
const (
	// KindBasic is h :- body.  An empty head (0) makes it an integrity
	// constraint.
	KindBasic RuleKind = iota + 1
	// KindChoice is lower { h1 [:c1]; ... } upper :- body. Conditions are
	// ground atoms guarding both choosability and the cardinality count.
	KindChoice
)

// GroundRule is a fully instantiated rule.
type GroundRule struct {
	Kind  RuleKind
	Head  AtomID   // KindBasic: 0 for constraints
	Heads []AtomID // KindChoice head atoms
	Conds []AtomID // KindChoice per-head guard atom (0 = unconditional)
	Lower int      // KindChoice lower bound (logic.Unbounded if none)
	Upper int      // KindChoice upper bound (logic.Unbounded if none)
	Pos   []AtomID
	Neg   []AtomID
}

// GroundMinimize is a ground optimization element: weight@priority with a
// deduplication tuple and a guard atom that holds iff the element's
// condition is satisfied.
type GroundMinimize struct {
	Weight   int
	Priority int
	Tuple    string // canonical tuple key used for deduplication
	Guard    AtomID
}

// GroundProgram is the grounder output consumed by the solve stage.
type GroundProgram struct {
	names    []string          // AtomID -> key ("" at index 0)
	ids      map[string]AtomID // key -> AtomID
	internal []bool            // auxiliary atoms (not part of answer-set output)
	Rules    []GroundRule
	Minimize []GroundMinimize
}

// NewGroundProgram creates an empty ground program.
func NewGroundProgram() *GroundProgram {
	return &GroundProgram{
		names: []string{""},
		ids:   make(map[string]AtomID),
	}
}

// AtomIDFor interns a ground atom key and returns its ID.
func (g *GroundProgram) AtomIDFor(key string) AtomID {
	if id, ok := g.ids[key]; ok {
		return id
	}
	id := AtomID(len(g.names))
	g.names = append(g.names, key)
	g.internal = append(g.internal, false)
	g.ids[key] = id
	return id
}

// atomIDForBytes is AtomIDFor for a key held in a byte buffer; it
// allocates the key string only when the atom is new.
func (g *GroundProgram) atomIDForBytes(key []byte) AtomID {
	if id, ok := g.ids[string(key)]; ok {
		return id
	}
	return g.AtomIDFor(string(key))
}

// LookupAtom returns the ID for key if it was interned.
func (g *GroundProgram) LookupAtom(key string) (AtomID, bool) {
	id, ok := g.ids[key]
	return id, ok
}

// NewInternalAtom creates a fresh auxiliary atom that is excluded from
// answer-set output.
func (g *GroundProgram) NewInternalAtom(hint string) AtomID {
	key := fmt.Sprintf("__aux_%s_%d", hint, len(g.names))
	id := g.AtomIDFor(key)
	g.internal[int(id)-1] = true
	return id
}

// IsInternal reports whether the atom is auxiliary.
func (g *GroundProgram) IsInternal(id AtomID) bool {
	i := int(id) - 1
	return i >= 0 && i < len(g.internal) && g.internal[i]
}

// AtomName returns the key of an atom ID.
func (g *GroundProgram) AtomName(id AtomID) string {
	if id <= 0 || int(id) >= len(g.names) {
		return "?"
	}
	return g.names[id]
}

// NumAtoms returns the number of interned atoms.
func (g *GroundProgram) NumAtoms() int { return len(g.names) - 1 }

// AddBasic appends h :- pos, not neg. A zero head is a constraint.
func (g *GroundProgram) AddBasic(head AtomID, pos, neg []AtomID) {
	g.Rules = append(g.Rules, GroundRule{Kind: KindBasic, Head: head, Pos: pos, Neg: neg})
}

// AddFact appends a fact.
func (g *GroundProgram) AddFact(head AtomID) { g.AddBasic(head, nil, nil) }

// AddConstraint appends :- pos, not neg.
func (g *GroundProgram) AddConstraint(pos, neg []AtomID) { g.AddBasic(0, pos, neg) }

// AddChoice appends lower { heads } upper :- pos, not neg.
func (g *GroundProgram) AddChoice(heads, conds []AtomID, lower, upper int, pos, neg []AtomID) {
	g.Rules = append(g.Rules, GroundRule{
		Kind: KindChoice, Heads: heads, Conds: conds,
		Lower: lower, Upper: upper, Pos: pos, Neg: neg,
	})
}

// String renders the ground program for debugging, rules sorted textually
// for determinism.
func (g *GroundProgram) String() string {
	lines := make([]string, 0, len(g.Rules))
	for _, r := range g.Rules {
		lines = append(lines, g.ruleString(r))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func (g *GroundProgram) ruleString(r GroundRule) string {
	var sb strings.Builder
	switch r.Kind {
	case KindChoice:
		if r.Lower != logic.Unbounded {
			fmt.Fprintf(&sb, "%d ", r.Lower)
		}
		sb.WriteString("{ ")
		for i, h := range r.Heads {
			if i > 0 {
				sb.WriteString("; ")
			}
			sb.WriteString(g.AtomName(h))
			if r.Conds[i] != 0 {
				sb.WriteString(" : ")
				sb.WriteString(g.AtomName(r.Conds[i]))
			}
		}
		sb.WriteString(" }")
		if r.Upper != logic.Unbounded {
			fmt.Fprintf(&sb, " %d", r.Upper)
		}
	default:
		if r.Head != 0 {
			sb.WriteString(g.AtomName(r.Head))
		}
	}
	if len(r.Pos)+len(r.Neg) > 0 {
		sb.WriteString(" :- ")
		first := true
		for _, p := range r.Pos {
			if !first {
				sb.WriteString(", ")
			}
			first = false
			sb.WriteString(g.AtomName(p))
		}
		for _, n := range r.Neg {
			if !first {
				sb.WriteString(", ")
			}
			first = false
			sb.WriteString("not " + g.AtomName(n))
		}
	}
	sb.WriteByte('.')
	return sb.String()
}
