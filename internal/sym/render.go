package sym

import "strconv"

// The display forms of variables, expressions, constraints and paths are
// rendered by the append functions below and nowhere else: every String
// method and Path.Signature delegate to them. Signatures are explorer
// keys and metacompile plan keys, so they are built on the exploration
// hot path; appending into a caller's buffer with strconv keeps that path
// free of fmt and of intermediate strings.

// nilOperand is the form a missing (nil) operand renders as: fmt's form
// for a nil %s operand.
const nilOperand = "%!s(<nil>)"

// appendVar appends the display form of v to b: "receiver", "s0", "temp1",
// "arg0" or "v3.slot2".
func appendVar(b []byte, v *Var) []byte {
	if v == nil {
		return append(b, "<nil var>"...)
	}
	switch v.Role.Kind {
	case RoleReceiver:
		return append(b, "receiver"...)
	case RoleSlot:
		b = append(b, 'v')
		b = strconv.AppendInt(b, int64(v.Role.OwnerID), 10)
		b = append(b, ".slot"...)
		return strconv.AppendInt(b, int64(v.Role.Index), 10)
	default:
		b = append(b, v.Role.Kind.String()...)
		return strconv.AppendInt(b, int64(v.Role.Index), 10)
	}
}

// appendIntExpr appends the display form of an integer expression to b.
func appendIntExpr(b []byte, e IntExpr) []byte {
	switch e := e.(type) {
	case IntConst:
		return strconv.AppendInt(b, e.V, 10)
	case IntValueOf:
		return appendVarCall(b, "intValueOf(", e.V)
	case SlotCountOf:
		return appendVarCall(b, "slotCountOf(", e.V)
	case IntBin:
		b = append(b, '(')
		b = appendIntExpr(b, e.L)
		b = appendOp(b, e.Op.String())
		b = appendIntExpr(b, e.R)
		return append(b, ')')
	}
	return append(b, nilOperand...)
}

// appendFloatExpr appends the display form of a float expression to b.
// Literals use the shortest representation that round-trips, as %g does.
func appendFloatExpr(b []byte, e FloatExpr) []byte {
	switch e := e.(type) {
	case FloatConst:
		return strconv.AppendFloat(b, e.V, 'g', -1, 64)
	case FloatValueOf:
		return appendVarCall(b, "floatValueOf(", e.V)
	case IntToFloat:
		b = append(b, "intToFloat("...)
		b = appendIntExpr(b, e.E)
		return append(b, ')')
	case FloatBin:
		b = append(b, '(')
		b = appendFloatExpr(b, e.L)
		b = appendOp(b, e.Op.String())
		b = appendFloatExpr(b, e.R)
		return append(b, ')')
	}
	return append(b, nilOperand...)
}

// AppendConstraint appends the display form of c to b.
func AppendConstraint(b []byte, c Constraint) []byte {
	switch c := c.(type) {
	case TypeIs:
		switch c.Kind {
		case KindSmallInt:
			return appendVarCall(b, "isSmallInteger(", c.V)
		case KindFloat:
			return appendVarCall(b, "isFloat(", c.V)
		}
		b = append(b, "is"...)
		b = appendTitle(b, c.Kind.String())
		b = append(b, '(')
		b = appendVar(b, c.V)
		return append(b, ')')
	case ClassIs:
		b = appendVarCall(b, "classIndexOf(", c.V)
		b = append(b, " = "...)
		return strconv.AppendInt(b, int64(c.ClassIndex), 10)
	case FormatIs:
		b = appendVarCall(b, "formatOf(", c.V)
		b = append(b, " = "...)
		return append(b, c.F.String()...)
	case ICmp:
		b = appendIntExpr(b, c.L)
		b = appendOp(b, c.Op.String())
		return appendIntExpr(b, c.R)
	case FCmp:
		b = appendFloatExpr(b, c.L)
		b = appendOp(b, c.Op.String())
		return appendFloatExpr(b, c.R)
	case InSmallIntRange:
		b = append(b, "isIntegerValue("...)
		b = appendIntExpr(b, c.E)
		return append(b, ')')
	case StackSizeAtLeast:
		b = append(b, "operand_stack_size >= "...)
		return strconv.AppendInt(b, int64(c.N), 10)
	case SlotCountAtLeast:
		b = appendVarCall(b, "slotCountOf(", c.V)
		b = append(b, " >= "...)
		return strconv.AppendInt(b, int64(c.N), 10)
	case Identical:
		b = appendVar(b, c.A)
		b = append(b, " == "...)
		return appendVar(b, c.B)
	case Bool:
		return strconv.AppendBool(b, c.B)
	case Not:
		b = append(b, "!("...)
		b = AppendConstraint(b, c.C)
		return append(b, ')')
	case Opaque:
		return append(b, c.Text...)
	case AllOf:
		return appendJoined(b, c, " AND ")
	case AnyOf:
		return appendJoined(b, c, " OR ")
	}
	return append(b, nilOperand...)
}

// appendSignature appends the path's signature to b: the display form of
// every condition, joined by '&'. Assumed marks are not part of it.
func (p Path) appendSignature(b []byte) []byte {
	for i, c := range p {
		if i > 0 {
			b = append(b, '&')
		}
		b = AppendConstraint(b, c.C)
	}
	return b
}

func appendVarCall(b []byte, fn string, v *Var) []byte {
	b = append(b, fn...)
	b = appendVar(b, v)
	return append(b, ')')
}

func appendOp(b []byte, op string) []byte {
	b = append(b, ' ')
	b = append(b, op...)
	return append(b, ' ')
}

func appendJoined(b []byte, cs []Constraint, sep string) []byte {
	b = append(b, '(')
	for i, c := range cs {
		if i > 0 {
			b = append(b, sep...)
		}
		b = AppendConstraint(b, c)
	}
	return append(b, ')')
}

// appendTitle appends a type-kind name with its first letter upper-cased
// ("nil" becomes "Nil"); no kind name holds a second word.
func appendTitle(b []byte, s string) []byte {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return append(b, s...)
	}
	b = append(b, s[0]-('a'-'A'))
	return append(b, s[1:]...)
}
