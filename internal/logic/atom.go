package logic

import (
	"fmt"
	"strconv"
	"strings"
)

// Atom is a predicate applied to terms, p(t1,...,tn). A propositional atom
// has no arguments.
type Atom struct {
	Pred string
	Args []Term
}

// A is a convenience constructor for Atom.
func A(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

// Ground reports whether all arguments are ground.
func (a Atom) Ground() bool {
	for _, t := range a.Args {
		if !t.Ground() {
			return false
		}
	}
	return true
}

// Vars appends the variables occurring in the atom to dst.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		dst = t.Vars(dst)
	}
	return dst
}

// Substitute applies a binding to all arguments.
func (a Atom) Substitute(b Bindings) Atom {
	if len(a.Args) == 0 {
		return a
	}
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = t.Substitute(b)
	}
	return Atom{Pred: a.Pred, Args: args}
}

// Eval evaluates all arguments (reducing arithmetic); the atom must be
// ground.
func (a Atom) Eval() (Atom, error) {
	if len(a.Args) == 0 {
		return a, nil
	}
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		e, err := Eval(t)
		if err != nil {
			return Atom{}, fmt.Errorf("atom %s: %w", a, err)
		}
		args[i] = e
	}
	return Atom{Pred: a.Pred, Args: args}, nil
}

// Key renders a canonical string key for a ground, evaluated atom. It is
// the interning key for the ground atom table.
func (a Atom) Key() string { return a.String() }

// String implements fmt.Stringer.
func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	var sb strings.Builder
	sb.WriteString(a.Pred)
	sb.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(t.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Signature returns "pred/arity".
func (a Atom) Signature() string {
	return a.Pred + "/" + strconv.Itoa(len(a.Args))
}

// Literal is an atom or its default negation ("not a").
type Literal struct {
	Atom    Atom
	Negated bool
}

// Pos constructs a positive literal.
func Pos(a Atom) Literal { return Literal{Atom: a} }

// Not constructs a default-negated literal.
func Not(a Atom) Literal { return Literal{Atom: a, Negated: true} }

// String implements fmt.Stringer.
func (l Literal) String() string {
	if l.Negated {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// CompareOp is a relational operator in a comparison body element.
type CompareOp int

// Comparison operators.
const (
	CmpEq CompareOp = iota + 1
	CmpNeq
	CmpLt
	CmpLeq
	CmpGt
	CmpGeq
)

// String implements fmt.Stringer.
func (o CompareOp) String() string {
	switch o {
	case CmpEq:
		return "="
	case CmpNeq:
		return "!="
	case CmpLt:
		return "<"
	case CmpLeq:
		return "<="
	case CmpGt:
		return ">"
	case CmpGeq:
		return ">="
	default:
		return "?cmp"
	}
}

// Comparison is a built-in relational body element, e.g. X < Y or
// C = Cost+1. During grounding an equality with a single unbound variable
// on one side acts as an assignment.
type Comparison struct {
	Op          CompareOp
	Left, Right Term
}

// Vars appends the variables occurring in the comparison to dst.
func (c Comparison) Vars(dst []string) []string {
	return c.Right.Vars(c.Left.Vars(dst))
}

// Substitute applies a binding to both sides.
func (c Comparison) Substitute(b Bindings) Comparison {
	return Comparison{Op: c.Op, Left: c.Left.Substitute(b), Right: c.Right.Substitute(b)}
}

// Holds evaluates the comparison; both sides must be ground. Numeric
// comparisons use integer order; mixed/symbolic use the term order.
func (c Comparison) Holds() (bool, error) {
	l, err := Eval(c.Left)
	if err != nil {
		return false, fmt.Errorf("comparison %s: %w", c, err)
	}
	r, err := Eval(c.Right)
	if err != nil {
		return false, fmt.Errorf("comparison %s: %w", c, err)
	}
	cmp := Compare(l, r)
	switch c.Op {
	case CmpEq:
		return cmp == 0, nil
	case CmpNeq:
		return cmp != 0, nil
	case CmpLt:
		return cmp < 0, nil
	case CmpLeq:
		return cmp <= 0, nil
	case CmpGt:
		return cmp > 0, nil
	case CmpGeq:
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("comparison %s: unknown operator", c)
	}
}

// String implements fmt.Stringer.
func (c Comparison) String() string {
	return c.Left.String() + " " + c.Op.String() + " " + c.Right.String()
}

// BodyElem is a rule-body element: a Literal or a Comparison.
type BodyElem interface {
	fmt.Stringer
	isBodyElem()
}

func (Literal) isBodyElem()    {}
func (Comparison) isBodyElem() {}
