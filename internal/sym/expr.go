package sym

// BinOp enumerates arithmetic operators in symbolic expressions.
type BinOp int

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv // truncated toward negative infinity (Smalltalk //) for ints
	OpMod // Smalltalk \\
	OpQuo // truncated toward zero
	OpBitAnd
	OpBitOr
	OpBitXor
	OpShiftLeft
	OpShiftRight
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "//", OpMod: "\\\\",
	OpQuo: "quo", OpBitAnd: "bitAnd", OpBitOr: "bitOr", OpBitXor: "bitXor",
	OpShiftLeft: "<<", OpShiftRight: ">>",
}

func (o BinOp) String() string { return binOpNames[o] }

// IsBitwise reports whether the operator is a bitwise operation, which the
// solver has no theory for (paper §4.3). Bitwise expressions may appear in
// *output* descriptions but must never reach a path constraint.
func (o BinOp) IsBitwise() bool {
	switch o {
	case OpBitAnd, OpBitOr, OpBitXor, OpShiftLeft, OpShiftRight:
		return true
	}
	return false
}

// IntExpr is a symbolic integer-valued expression (untagged values).
type IntExpr interface {
	intExpr()
	String() string
}

// IntConst is a literal integer.
type IntConst struct{ V int64 }

// IntValueOf is the untagged integer value of a variable; meaningful under
// a TypeIs(V, KindSmallInt) assumption.
type IntValueOf struct{ V *Var }

// SlotCountOf is the body slot count of the object bound to V.
type SlotCountOf struct{ V *Var }

// IntBin is a binary arithmetic node.
type IntBin struct {
	Op   BinOp
	L, R IntExpr
}

func (IntConst) intExpr()    {}
func (IntValueOf) intExpr()  {}
func (SlotCountOf) intExpr() {}
func (IntBin) intExpr()      {}

func (e IntConst) String() string    { return string(appendIntExpr(nil, e)) }
func (e IntValueOf) String() string  { return string(appendIntExpr(nil, e)) }
func (e SlotCountOf) String() string { return string(appendIntExpr(nil, e)) }
func (e IntBin) String() string      { return string(appendIntExpr(nil, e)) }

// FloatExpr is a symbolic float-valued expression.
type FloatExpr interface {
	floatExpr()
	String() string
}

// FloatConst is a literal float.
type FloatConst struct{ V float64 }

// FloatValueOf is the unboxed float value of a variable; meaningful under
// a TypeIs(V, KindFloat) assumption.
type FloatValueOf struct{ V *Var }

// IntToFloat coerces an integer expression (the asFloat conversion, one of
// the paper's semantic conditions in §3.3).
type IntToFloat struct{ E IntExpr }

// FloatBin is a binary float arithmetic node.
type FloatBin struct {
	Op   BinOp
	L, R FloatExpr
}

func (FloatConst) floatExpr()   {}
func (FloatValueOf) floatExpr() {}
func (IntToFloat) floatExpr()   {}
func (FloatBin) floatExpr()     {}

func (e FloatConst) String() string   { return string(appendFloatExpr(nil, e)) }
func (e FloatValueOf) String() string { return string(appendFloatExpr(nil, e)) }
func (e IntToFloat) String() string   { return string(appendFloatExpr(nil, e)) }
func (e FloatBin) String() string     { return string(appendFloatExpr(nil, e)) }

// ValExpr symbolically describes one VM value (a tagged word): where it
// came from and, for derived values, how it was computed. Abstract output
// frames are made of ValExprs.
type ValExpr interface {
	valExpr()
	String() string
}

// VarRef is an unmodified input value.
type VarRef struct{ V *Var }

// IntObj is a tagged small integer holding E.
type IntObj struct{ E IntExpr }

// FloatObj is a boxed float holding E.
type FloatObj struct{ E FloatExpr }

// BoolObj is the true/false object chosen by condition C.
type BoolObj struct{ C Constraint }

// KnownObj is a well-known constant value: nil, true, false, a method
// literal, or a class object.
type KnownObj struct{ Name string }

func (VarRef) valExpr()   {}
func (IntObj) valExpr()   {}
func (FloatObj) valExpr() {}
func (BoolObj) valExpr()  {}
func (KnownObj) valExpr() {}

func (e VarRef) String() string   { return e.V.String() }
func (e IntObj) String() string   { return string(append(appendIntExpr([]byte("int("), e.E), ')')) }
func (e FloatObj) String() string { return string(append(appendFloatExpr([]byte("float("), e.E), ')')) }
func (e BoolObj) String() string  { return string(append(AppendConstraint([]byte("bool("), e.C), ')')) }
func (e KnownObj) String() string { return e.Name }

// VarsOfInt collects the variables appearing in an integer expression.
func VarsOfInt(e IntExpr, into map[int]*Var) {
	switch n := e.(type) {
	case IntValueOf:
		into[n.V.ID] = n.V
	case SlotCountOf:
		into[n.V.ID] = n.V
	case IntBin:
		VarsOfInt(n.L, into)
		VarsOfInt(n.R, into)
	}
}

// VarsOfFloat collects the variables appearing in a float expression.
func VarsOfFloat(e FloatExpr, into map[int]*Var) {
	switch n := e.(type) {
	case FloatValueOf:
		into[n.V.ID] = n.V
	case IntToFloat:
		VarsOfInt(n.E, into)
	case FloatBin:
		VarsOfFloat(n.L, into)
		VarsOfFloat(n.R, into)
	}
}

// HasBitwise reports whether an integer expression contains bitwise
// operations the solver cannot reason about.
func HasBitwise(e IntExpr) bool {
	if b, ok := e.(IntBin); ok {
		return b.Op.IsBitwise() || HasBitwise(b.L) || HasBitwise(b.R)
	}
	return false
}
