package sym

import (
	"fmt"

	"cogdiff/internal/heap"
)

// TypeKind is the semantic type domain of a value, as seen by the
// constraint model (§3.3): the model records isSmallInteger(v) rather than
// (v & 1) == 1, keeping constraints address- and representation-independent.
type TypeKind int

const (
	KindSmallInt TypeKind = iota
	KindFloat
	KindNil
	KindTrue
	KindFalse
	// KindPointer is any non-immediate heap object that is not one of the
	// singled-out kinds above.
	KindPointer

	NumTypeKinds
)

func (k TypeKind) String() string {
	switch k {
	case KindSmallInt:
		return "SmallInteger"
	case KindFloat:
		return "Float"
	case KindNil:
		return "nil"
	case KindTrue:
		return "true"
	case KindFalse:
		return "false"
	case KindPointer:
		return "object"
	}
	return fmt.Sprintf("TypeKind(%d)", int(k))
}

// CmpOp enumerates comparison operators.
type CmpOp int

const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (o CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[o]
}

// Negated returns the complementary comparison.
func (o CmpOp) Negated() CmpOp {
	return [...]CmpOp{CmpNE, CmpEQ, CmpGE, CmpGT, CmpLE, CmpLT}[o]
}

// Constraint is one semantic path condition.
type Constraint interface {
	constraint()
	String() string
}

// TypeIs asserts the semantic type of a variable.
type TypeIs struct {
	V    *Var
	Kind TypeKind
}

// ClassIs asserts classIndexOf(V) = ClassIndex.
type ClassIs struct {
	V          *Var
	ClassIndex int
}

// FormatIs asserts the heap format of the object bound to V.
type FormatIs struct {
	V *Var
	F heap.Format
}

// ICmp is an integer comparison between two expressions.
type ICmp struct {
	Op   CmpOp
	L, R IntExpr
}

// FCmp is a float comparison between two expressions.
type FCmp struct {
	Op   CmpOp
	L, R FloatExpr
}

// InSmallIntRange asserts the expression fits the tagged SmallInteger
// range. It is kept as a single atom so its negation yields the paper's
// disjunction (Fig. 2: s3 >= max OR s3 <= min).
type InSmallIntRange struct{ E IntExpr }

// StackSizeAtLeast asserts the operand stack holds at least N values.
// Fig. 2's "operand_stack_size > 1" is StackSizeAtLeast{2}.
type StackSizeAtLeast struct{ N int }

// SlotCountAtLeast asserts the object bound to V has at least N body slots.
type SlotCountAtLeast struct {
	V *Var
	N int
}

// Identical asserts two variables are the very same object (pointer
// identity), used by ==.
type Identical struct{ A, B *Var }

// Bool is a constant condition (from constant-folded checks).
type Bool struct{ B bool }

// Not negates a constraint.
type Not struct{ C Constraint }

// Opaque carries a constraint in display form only — used when loading
// cached explorations, whose constraint paths serialize as text. Opaque
// constraints keep signatures and reports intact but cannot be solved.
type Opaque struct{ Text string }

// AllOf is a conjunction.
type AllOf []Constraint

// AnyOf is a disjunction.
type AnyOf []Constraint

func (TypeIs) constraint()           {}
func (ClassIs) constraint()          {}
func (FormatIs) constraint()         {}
func (ICmp) constraint()             {}
func (FCmp) constraint()             {}
func (InSmallIntRange) constraint()  {}
func (StackSizeAtLeast) constraint() {}
func (SlotCountAtLeast) constraint() {}
func (Identical) constraint()        {}
func (Bool) constraint()             {}
func (Not) constraint()              {}
func (Opaque) constraint()           {}
func (AllOf) constraint()            {}
func (AnyOf) constraint()            {}

func (c TypeIs) String() string           { return render(c) }
func (c ClassIs) String() string          { return render(c) }
func (c FormatIs) String() string         { return render(c) }
func (c ICmp) String() string             { return render(c) }
func (c FCmp) String() string             { return render(c) }
func (c InSmallIntRange) String() string  { return render(c) }
func (c StackSizeAtLeast) String() string { return render(c) }
func (c SlotCountAtLeast) String() string { return render(c) }
func (c Identical) String() string        { return render(c) }
func (c Bool) String() string             { return render(c) }
func (c Not) String() string              { return render(c) }
func (c Opaque) String() string           { return c.Text }
func (c AllOf) String() string            { return render(c) }
func (c AnyOf) String() string            { return render(c) }

func render(c Constraint) string { return string(AppendConstraint(nil, c)) }

// Negate returns the logical negation of c, pushing the negation inward
// where a direct complement exists (comparison flips, De Morgan).
func Negate(c Constraint) Constraint {
	switch n := c.(type) {
	case Not:
		return n.C
	case Bool:
		return Bool{!n.B}
	case ICmp:
		return ICmp{Op: n.Op.Negated(), L: n.L, R: n.R}
	case FCmp:
		return FCmp{Op: n.Op.Negated(), L: n.L, R: n.R}
	case AllOf:
		out := make(AnyOf, len(n))
		for i, e := range n {
			out[i] = Negate(e)
		}
		return out
	case AnyOf:
		out := make(AllOf, len(n))
		for i, e := range n {
			out[i] = Negate(e)
		}
		return out
	default:
		return Not{C: c}
	}
}

// Condition is one recorded path condition: the constraint that held
// during a concolic execution, plus bookkeeping used by the explorer.
type Condition struct {
	C Constraint
	// Assumed marks conditions that were forced by the explorer (they
	// belong to the negated prefix) and must not be negated again.
	Assumed bool
}

// Path is the ordered list of conditions one concolic execution recorded.
type Path []Condition

// Constraints returns the bare constraint list of the path.
func (p Path) Constraints() []Constraint {
	out := make([]Constraint, len(p))
	for i, c := range p {
		out[i] = c.C
	}
	return out
}

func (p Path) String() string {
	var b []byte
	for i, c := range p {
		if i > 0 {
			b = append(b, " AND "...)
		}
		if c.Assumed {
			b = append(b, '*')
		}
		b = AppendConstraint(b, c.C)
	}
	return string(b)
}

// Signature returns a canonical string identifying the path's constraint
// sequence; the explorer uses it to avoid re-exploring identical prefixes.
func (p Path) Signature() string { return string(p.appendSignature(nil)) }
