package logic

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTermString(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{Sym("tank"), "tank"},
		{Sym("With Space"), `"With Space"`},
		{Sym("Upper"), `"Upper"`},
		{Sym(""), `""`},
		{Num(42), "42"},
		{Num(-7), "-7"},
		{Var("X"), "X"},
		{Func("state", Sym("tank"), Var("S")), "state(tank,S)"},
		{Func("f", Func("g", Num(1))), "f(g(1))"},
		{Interval{Lo: Num(0), Hi: Num(4)}, "0..4"},
		{BinOp{Op: OpAdd, Left: Var("X"), Right: Num(1)}, "(X+1)"},
	}
	for _, tt := range tests {
		if got := tt.term.String(); got != tt.want {
			t.Errorf("String(%#v) = %q, want %q", tt.term, got, tt.want)
		}
	}
}

func TestGroundAndVars(t *testing.T) {
	tm := Func("state", Sym("tank"), Var("S"), BinOp{Op: OpAdd, Left: Var("T"), Right: Num(1)})
	if tm.Ground() {
		t.Error("term with variables reported ground")
	}
	vars := tm.Vars(nil)
	if len(vars) != 2 || vars[0] != "S" || vars[1] != "T" {
		t.Errorf("Vars = %v", vars)
	}
	if !Func("f", Num(1), Sym("a")).Ground() {
		t.Error("ground term reported non-ground")
	}
}

func TestSubstitute(t *testing.T) {
	b := Bindings{"X": Num(3), "Y": Sym("tank")}
	tm := Func("p", Var("X"), Var("Y"), Var("Z"))
	got := tm.Substitute(b).String()
	if got != "p(3,tank,Z)" {
		t.Errorf("Substitute = %q", got)
	}
	// Original must be unchanged.
	if tm.String() != "p(X,Y,Z)" {
		t.Error("Substitute mutated the original term")
	}
}

func TestBindingsClone(t *testing.T) {
	b := Bindings{"X": Num(1)}
	c := b.Clone()
	c["Y"] = Num(2)
	if _, ok := b["Y"]; ok {
		t.Error("Clone must not share storage")
	}
}

func TestEvalArithmetic(t *testing.T) {
	tests := []struct {
		term    Term
		want    int
		wantErr bool
	}{
		{BinOp{Op: OpAdd, Left: Num(2), Right: Num(3)}, 5, false},
		{BinOp{Op: OpSub, Left: Num(2), Right: Num(3)}, -1, false},
		{BinOp{Op: OpMul, Left: Num(4), Right: Num(3)}, 12, false},
		{BinOp{Op: OpDiv, Left: Num(7), Right: Num(2)}, 3, false},
		{BinOp{Op: OpMod, Left: Num(7), Right: Num(2)}, 1, false},
		{BinOp{Op: OpDiv, Left: Num(7), Right: Num(0)}, 0, true},
		{BinOp{Op: OpMod, Left: Num(7), Right: Num(0)}, 0, true},
		{BinOp{Op: OpAdd, Left: Sym("a"), Right: Num(1)}, 0, true},
		{BinOp{Op: OpAdd, Left: Var("X"), Right: Num(1)}, 0, true},
		{BinOp{Op: OpMul, Left: BinOp{Op: OpAdd, Left: Num(1), Right: Num(2)}, Right: Num(3)}, 9, false},
	}
	for _, tt := range tests {
		got, err := EvalInt(tt.term)
		if (err != nil) != tt.wantErr {
			t.Errorf("EvalInt(%s) err = %v, wantErr %v", tt.term, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("EvalInt(%s) = %d, want %d", tt.term, got, tt.want)
		}
	}
}

func TestEvalInsideCompound(t *testing.T) {
	tm := Func("cost", BinOp{Op: OpAdd, Left: Num(10), Right: Num(5)})
	e, err := Eval(tm)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "cost(15)" {
		t.Errorf("Eval = %s", e)
	}
}

func TestEvalRejectsInterval(t *testing.T) {
	if _, err := Eval(Interval{Lo: Num(1), Hi: Num(3)}); err == nil {
		t.Error("Eval(interval) must fail outside fact positions")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	// numbers < symbols < compounds
	ordered := []Term{
		Num(-5), Num(0), Num(7),
		Sym("alpha"), Sym("beta"),
		Func("f", Num(1)), Func("f", Num(2)), Func("f", Num(1), Num(1)), Func("g", Num(0)),
	}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%s,%s) = %d, want <0", ordered[i], ordered[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%s,%s) = %d, want 0", ordered[i], ordered[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%s,%s) = %d, want >0", ordered[i], ordered[j], got)
			}
		}
	}
}

// Property: Compare is antisymmetric on evaluated simple terms.
func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int, sa, sb string) bool {
		ta, tb := Term(Num(a)), Term(Num(b))
		if len(sa)%2 == 0 {
			ta = Sym(sa)
		}
		if len(sb)%2 == 0 {
			tb = Sym(sb)
		}
		x, y := Compare(ta, tb), Compare(tb, ta)
		return (x == 0) == (y == 0) && (x < 0) == (y > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSignatureMatchesSprintf checks Signature against the fmt form it
// replaced, over arities 0-3 and predicate names that quote or not.
func TestSignatureMatchesSprintf(t *testing.T) {
	args := []Term{Sym("a"), Num(-7), Var("X"), Func("f", Sym("b"))}
	for _, pred := range []string{"p", "err", "vc_r1_1", "P q", ""} {
		for n := 0; n <= 3; n++ {
			a := A(pred, args[:n]...)
			if got, want := a.Signature(), fmt.Sprintf("%s/%d", a.Pred, len(a.Args)); got != want {
				t.Errorf("Signature(%v) = %q, want %q", a, got, want)
			}
		}
	}
}

func TestAtomBasics(t *testing.T) {
	a := A("state", Sym("tank"), Var("S"))
	if a.Ground() {
		t.Error("atom with variable reported ground")
	}
	if a.Signature() != "state/2" {
		t.Errorf("Signature = %s", a.Signature())
	}
	sub := a.Substitute(Bindings{"S": Sym("high")})
	if sub.Key() != "state(tank,high)" {
		t.Errorf("Key = %s", sub.Key())
	}
	if A("overflow").String() != "overflow" {
		t.Error("propositional atom rendering")
	}
}

func TestAtomEval(t *testing.T) {
	a := A("cost", BinOp{Op: OpMul, Left: Num(3), Right: Num(4)})
	e, err := a.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if e.Key() != "cost(12)" {
		t.Errorf("Eval = %s", e.Key())
	}
	bad := A("cost", Var("X"))
	if _, err := bad.Eval(); err == nil {
		t.Error("Eval of non-ground atom must fail")
	}
}

func TestComparisonHolds(t *testing.T) {
	tests := []struct {
		cmp  Comparison
		want bool
	}{
		{Comparison{Op: CmpLt, Left: Num(1), Right: Num(2)}, true},
		{Comparison{Op: CmpLt, Left: Num(2), Right: Num(2)}, false},
		{Comparison{Op: CmpLeq, Left: Num(2), Right: Num(2)}, true},
		{Comparison{Op: CmpGt, Left: Num(3), Right: Num(2)}, true},
		{Comparison{Op: CmpGeq, Left: Num(2), Right: Num(3)}, false},
		{Comparison{Op: CmpEq, Left: Sym("a"), Right: Sym("a")}, true},
		{Comparison{Op: CmpNeq, Left: Sym("a"), Right: Sym("b")}, true},
		{Comparison{Op: CmpEq, Left: BinOp{Op: OpAdd, Left: Num(1), Right: Num(1)}, Right: Num(2)}, true},
		{Comparison{Op: CmpLt, Left: Sym("a"), Right: Sym("b")}, true},
	}
	for _, tt := range tests {
		got, err := tt.cmp.Holds()
		if err != nil {
			t.Errorf("Holds(%s): %v", tt.cmp, err)
			continue
		}
		if got != tt.want {
			t.Errorf("Holds(%s) = %v, want %v", tt.cmp, got, tt.want)
		}
	}
	unbound := Comparison{Op: CmpLt, Left: Var("X"), Right: Num(1)}
	if _, err := unbound.Holds(); err == nil {
		t.Error("Holds with unbound variable must fail")
	}
}
