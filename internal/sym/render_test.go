package sym

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cogdiff/internal/heap"
)

// The oracle below is the fmt-based renderer the append renderer
// replaced, kept verbatim in behaviour. Signatures key the explorer's
// worklist and metacompile's plans, and constraint text reaches Table 1,
// so the two must agree byte for byte on every node kind.

func oracleVar(v *Var) string {
	if v == nil {
		return "<nil var>"
	}
	switch v.Role.Kind {
	case RoleReceiver:
		return "receiver"
	case RoleSlot:
		return fmt.Sprintf("v%d.slot%d", v.Role.OwnerID, v.Role.Index)
	default:
		return fmt.Sprintf("%s%d", v.Role.Kind, v.Role.Index)
	}
}

func oracleInt(e IntExpr) string {
	switch e := e.(type) {
	case IntConst:
		return fmt.Sprintf("%d", e.V)
	case IntValueOf:
		return fmt.Sprintf("intValueOf(%s)", oracleVar(e.V))
	case SlotCountOf:
		return fmt.Sprintf("slotCountOf(%s)", oracleVar(e.V))
	case IntBin:
		return fmt.Sprintf("(%s %s %s)", oracleInt(e.L), e.Op, oracleInt(e.R))
	}
	return fmt.Sprintf("%s", e)
}

func oracleFloat(e FloatExpr) string {
	switch e := e.(type) {
	case FloatConst:
		return fmt.Sprintf("%g", e.V)
	case FloatValueOf:
		return fmt.Sprintf("floatValueOf(%s)", oracleVar(e.V))
	case IntToFloat:
		return fmt.Sprintf("intToFloat(%s)", oracleInt(e.E))
	case FloatBin:
		return fmt.Sprintf("(%s %s %s)", oracleFloat(e.L), e.Op, oracleFloat(e.R))
	}
	return fmt.Sprintf("%s", e)
}

func oracleConstraint(c Constraint) string {
	switch c := c.(type) {
	case TypeIs:
		switch c.Kind {
		case KindSmallInt:
			return fmt.Sprintf("isSmallInteger(%s)", oracleVar(c.V))
		case KindFloat:
			return fmt.Sprintf("isFloat(%s)", oracleVar(c.V))
		default:
			return fmt.Sprintf("is%s(%s)", strings.Title(c.Kind.String()), oracleVar(c.V))
		}
	case ClassIs:
		return fmt.Sprintf("classIndexOf(%s) = %d", oracleVar(c.V), c.ClassIndex)
	case FormatIs:
		return fmt.Sprintf("formatOf(%s) = %s", oracleVar(c.V), c.F)
	case ICmp:
		return fmt.Sprintf("%s %s %s", oracleInt(c.L), c.Op, oracleInt(c.R))
	case FCmp:
		return fmt.Sprintf("%s %s %s", oracleFloat(c.L), c.Op, oracleFloat(c.R))
	case InSmallIntRange:
		return fmt.Sprintf("isIntegerValue(%s)", oracleInt(c.E))
	case StackSizeAtLeast:
		return fmt.Sprintf("operand_stack_size >= %d", c.N)
	case SlotCountAtLeast:
		return fmt.Sprintf("slotCountOf(%s) >= %d", oracleVar(c.V), c.N)
	case Identical:
		return fmt.Sprintf("%s == %s", oracleVar(c.A), oracleVar(c.B))
	case Bool:
		return fmt.Sprintf("%t", c.B)
	case Not:
		return fmt.Sprintf("!(%s)", oracleConstraint(c.C))
	case Opaque:
		return c.Text
	case AllOf:
		return oracleJoin(c, " AND ")
	case AnyOf:
		return oracleJoin(c, " OR ")
	}
	return fmt.Sprintf("%s", c)
}

func oracleJoin(cs []Constraint, sep string) string {
	parts := make([]string, len(cs))
	for i, e := range cs {
		parts[i] = oracleConstraint(e)
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func oracleSignature(p Path) string {
	parts := make([]string, len(p))
	for i, c := range p {
		parts[i] = oracleConstraint(c.C)
	}
	return strings.Join(parts, "&")
}

func oraclePath(p Path) string {
	parts := make([]string, len(p))
	for i, c := range p {
		s := oracleConstraint(c.C)
		if c.Assumed {
			s = "*" + s
		}
		parts[i] = s
	}
	return strings.Join(parts, " AND ")
}

// renderCorpus returns constraints covering every constraint, expression,
// operator, type kind and role kind, plus the numeric edge cases whose
// text fmt and strconv could plausibly disagree on.
func renderCorpus() []Constraint {
	u := NewUniverse()
	recv, arg, temp, s0 := u.Receiver(), u.Arg(1), u.Temp(2), u.Stack(0)
	slot := u.Slot(s0, 3)
	odd := &Var{ID: 99, Role: Role{Kind: RoleKind(42), Index: 7, OwnerID: -1}}
	vars := []*Var{recv, arg, temp, s0, slot, odd, nil}

	var ints []IntExpr
	for _, n := range []int64{0, 1, -1, 42, -1073741824, 1073741823, math.MaxInt64, math.MinInt64} {
		ints = append(ints, IntConst{n})
	}
	for _, v := range vars {
		ints = append(ints, IntValueOf{v}, SlotCountOf{v})
	}
	for op := OpAdd; op <= OpShiftRight; op++ {
		ints = append(ints, IntBin{op, IntValueOf{s0}, IntConst{-3}})
	}
	ints = append(ints, IntBin{OpMul, IntBin{OpSub, IntValueOf{recv}, IntConst{2}}, SlotCountOf{slot}})

	var floats []FloatExpr
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, -2.25, 1e21, 1e20, 1e-7, 1e-4, 123456789,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3} {
		floats = append(floats, FloatConst{f})
	}
	for _, v := range vars {
		floats = append(floats, FloatValueOf{v})
	}
	floats = append(floats, IntToFloat{IntBin{OpAdd, IntValueOf{s0}, IntConst{-7}}})
	for op := OpAdd; op <= OpQuo; op++ {
		floats = append(floats, FloatBin{op, FloatValueOf{s0}, FloatConst{-0.5}})
	}

	var cs []Constraint
	for _, v := range vars {
		for k := KindSmallInt; k <= NumTypeKinds; k++ {
			cs = append(cs, TypeIs{v, k})
		}
		cs = append(cs, ClassIs{v, heap.ClassIndexArray}, ClassIs{v, -5},
			SlotCountAtLeast{v, 3}, SlotCountAtLeast{v, -1}, Identical{v, recv})
		for f := heap.FormatFixed; f <= heap.FormatCompiledMethod+1; f++ {
			cs = append(cs, FormatIs{v, f})
		}
	}
	for op := CmpEQ; op <= CmpGE; op++ {
		for _, l := range ints {
			cs = append(cs, ICmp{op, l, IntConst{-9}})
		}
		for _, l := range floats {
			cs = append(cs, FCmp{op, l, FloatConst{-0.0}})
		}
	}
	for _, e := range ints {
		cs = append(cs, InSmallIntRange{e})
	}
	cs = append(cs,
		StackSizeAtLeast{0}, StackSizeAtLeast{2}, StackSizeAtLeast{-1},
		Bool{true}, Bool{false},
		Opaque{"isSmallInteger(s0) & whatever"}, Opaque{""},
		AllOf{}, AnyOf{},
		ICmp{CmpEQ, nil, IntConst{1}}, FCmp{CmpLT, FloatConst{2}, nil}, Not{nil},
	)
	nested := AllOf{
		TypeIs{s0, KindSmallInt},
		Not{AnyOf{TypeIs{recv, KindNil}, Not{ICmp{CmpLT, IntValueOf{s0}, IntConst{-1}}}}},
		AnyOf{AllOf{Bool{false}}, FCmp{CmpNE, FloatValueOf{slot}, FloatConst{math.NaN()}}},
	}
	cs = append(cs, nested, Not{nested}, Negate(nested), Not{Not{Bool{true}}})
	return cs
}

func TestAppendConstraintMatchesFmtOracle(t *testing.T) {
	for _, c := range renderCorpus() {
		want := oracleConstraint(c)
		if got := c.String(); got != want {
			t.Errorf("%#v.String() = %q, the fmt renderer gives %q", c, got, want)
		}
		if got := string(AppendConstraint([]byte("prefix:"), c)); got != "prefix:"+want {
			t.Errorf("AppendConstraint(%#v) = %q, want %q after the prefix", c, got, want)
		}
	}
}

func TestExpressionAndVarStringsMatchFmtOracle(t *testing.T) {
	for _, c := range renderCorpus() {
		switch c := c.(type) {
		case ICmp:
			if c.L == nil {
				continue
			}
			if got, want := c.L.String(), oracleInt(c.L); got != want {
				t.Errorf("%#v.String() = %q, want %q", c.L, got, want)
			}
			if got, want := (IntObj{c.L}).String(), "int("+oracleInt(c.L)+")"; got != want {
				t.Errorf("IntObj.String() = %q, want %q", got, want)
			}
		case FCmp:
			if c.L == nil {
				continue
			}
			if got, want := c.L.String(), oracleFloat(c.L); got != want {
				t.Errorf("%#v.String() = %q, want %q", c.L, got, want)
			}
			if got, want := (FloatObj{c.L}).String(), "float("+oracleFloat(c.L)+")"; got != want {
				t.Errorf("FloatObj.String() = %q, want %q", got, want)
			}
		case TypeIs:
			if got, want := c.V.String(), oracleVar(c.V); got != want {
				t.Errorf("var String() = %q, want %q", got, want)
			}
			if got, want := (BoolObj{c}).String(), "bool("+oracleConstraint(c)+")"; got != want {
				t.Errorf("BoolObj.String() = %q, want %q", got, want)
			}
		}
	}
}

func TestPathRenderingMatchesFmtOracle(t *testing.T) {
	cs := renderCorpus()
	var p Path
	for i, c := range cs {
		p = append(p, Condition{C: c, Assumed: i%3 == 0})
	}
	for _, q := range []Path{nil, p[:1], p[:2], p} {
		if got, want := q.Signature(), oracleSignature(q); got != want {
			t.Errorf("Signature() of a %d-condition path = %q, want %q", len(q), got, want)
		}
		if got, want := q.String(), oraclePath(q); got != want {
			t.Errorf("String() of a %d-condition path = %q, want %q", len(q), got, want)
		}
	}
}

// TestAppendSignatureAllocationFree pins the point of the append renderer:
// rendering a path's signature into a buffer that is already large enough
// allocates nothing. The path is primAdd's overflow path with a condition
// of every other kind the explorer records.
func TestAppendSignatureAllocationFree(t *testing.T) {
	u := NewUniverse()
	s0, s1 := u.Stack(0), u.Stack(1)
	sum := IntBin{OpAdd, IntValueOf{s0}, IntValueOf{s1}}
	p := Path{
		{C: StackSizeAtLeast{2}, Assumed: true},
		{C: TypeIs{s1, KindSmallInt}},
		{C: TypeIs{s0, KindSmallInt}},
		{C: Negate(InSmallIntRange{sum})},
		{C: Negate(AllOf{TypeIs{u.Receiver(), KindNil}, ClassIs{s0, heap.ClassIndexArray}})},
		{C: FormatIs{s1, heap.FormatPointers}},
		{C: SlotCountAtLeast{u.Slot(s1, 0), 2}},
		{C: Identical{s0, u.Temp(1)}},
		{C: FCmp{CmpLE, FloatBin{OpMul, FloatValueOf{s0}, IntToFloat{sum}}, FloatConst{-0.25}}},
		{C: ICmp{CmpNE, SlotCountOf{s1}, IntConst{-3}}},
		{C: Bool{false}},
		{C: Opaque{"isFloat(s0)"}},
	}
	buf := make([]byte, 0, 2*len(p.Signature()))
	allocs := testing.AllocsPerRun(20, func() {
		buf = p.appendSignature(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("appendSignature into a pre-grown buffer: %.1f allocations per run, want 0", allocs)
	}
	if string(buf) != oracleSignature(p) {
		t.Errorf("appendSignature into a reused buffer rendered %q, want %q", buf, oracleSignature(p))
	}
}
