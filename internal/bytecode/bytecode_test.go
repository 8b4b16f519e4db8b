package bytecode

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpcodeTableDense(t *testing.T) {
	ops := AllOpcodes()
	if len(ops) != NumOpcodes {
		t.Fatalf("opcode table has gaps: %d defined of %d", len(ops), NumOpcodes)
	}
	for _, op := range ops {
		d := Describe(op)
		if d.Op != op {
			t.Errorf("descriptor of %d self-reports %d", op, d.Op)
		}
		if d.Mnemonic == "" {
			t.Errorf("opcode %d has no mnemonic", op)
		}
	}
}

func TestFamilyMembership(t *testing.T) {
	// every family must have at least one member
	members := make(map[Family]int)
	for _, op := range AllOpcodes() {
		members[Describe(op).Family]++
	}
	for f := Family(0); f < NumFamilies; f++ {
		if members[f] == 0 {
			t.Errorf("family %s has no opcodes", f)
		}
	}
	if members[FamPushReceiverVariable] != 16 {
		t.Errorf("pushReceiverVariable family size %d", members[FamPushReceiverVariable])
	}
	if members[FamSend1Arg] != 16 {
		t.Errorf("send1Arg family size %d", members[FamSend1Arg])
	}
}

func TestJumpOffsets(t *testing.T) {
	if off, cond, onTrue, ok := JumpOffset(OpShortJump1, 0); !ok || off != 1 || cond || onTrue {
		t.Errorf("shortJump1: %d %v %v %v", off, cond, onTrue, ok)
	}
	if off, cond, onTrue, ok := JumpOffset(OpShortJumpIfTrue1+3, 0); !ok || off != 4 || !cond || !onTrue {
		t.Errorf("shortJumpIfTrue4: %d %v %v %v", off, cond, onTrue, ok)
	}
	if off, _, _, ok := JumpOffset(OpLongJumpForward0+2, 7); !ok || off != 2*256+7 {
		t.Errorf("longJumpForward: %d %v", off, ok)
	}
	if _, _, _, ok := JumpOffset(OpPrimAdd, 0); ok {
		t.Error("primAdd must not be a jump")
	}
}

func TestArgCountOfSend(t *testing.T) {
	if n, ok := ArgCountOfSend(OpSend0Args0 + 5); !ok || n != 0 {
		t.Error("send0")
	}
	if n, ok := ArgCountOfSend(OpSend1Arg0); !ok || n != 1 {
		t.Error("send1")
	}
	if n, ok := ArgCountOfSend(OpSend2Args0 + 7); !ok || n != 2 {
		t.Error("send2")
	}
	if _, ok := ArgCountOfSend(OpPrimAdd); ok {
		t.Error("primAdd is not a send")
	}
}

func TestBuilderBasicMethod(t *testing.T) {
	m, err := NewBuilder("addOne", 1).
		PushTemp(0).
		PushInt(1).
		Add().
		ReturnTop().
		Method()
	if err != nil {
		t.Fatal(err)
	}
	if m.TempCount() != 1 {
		t.Fatal("temp count")
	}
	want := []byte{byte(OpPushTemporaryVariable0), byte(OpPushConstantOne), byte(OpPrimAdd), byte(OpReturnTop)}
	if string(m.Code) != string(want) {
		t.Fatalf("code %v want %v", m.Code, want)
	}
}

func TestBuilderLiteralInterning(t *testing.T) {
	b := NewBuilder("m", 0)
	i1 := b.AddLiteral(IntLiteral(100))
	i2 := b.AddLiteral(IntLiteral(100))
	i3 := b.AddLiteral(IntLiteral(200))
	if i1 != i2 || i1 == i3 {
		t.Fatalf("interning broken: %d %d %d", i1, i2, i3)
	}
}

func TestBuilderJumpResolution(t *testing.T) {
	m, err := NewBuilder("cond", 1).
		PushTemp(0).
		JumpIfTrue("then").
		PushInt(0).
		ReturnTop().
		Label("then").
		PushInt(1).
		ReturnTop().
		Method()
	if err != nil {
		t.Fatal(err)
	}
	op, _, next, ok := m.FetchOp(1)
	if !ok {
		t.Fatal("cannot decode jump")
	}
	off, cond, onTrue, isJump := JumpOffset(op, 0)
	if !isJump || !cond || !onTrue {
		t.Fatal("not a conditional jump")
	}
	// The jump must land on the pushInt(1) at label "then".
	if target := next + off; Op(m.Code[target]) != OpPushConstantOne {
		t.Fatalf("jump target wrong: %d", target)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	if _, err := NewBuilder("bad", 0).Jump("nowhere").Method(); err == nil {
		t.Fatal("undefined label must error")
	}
}

// TestBuilderUndefinedLabelsInEmissionOrder pins Method's error to the
// first undefined label the method's jumps reference.
func TestBuilderUndefinedLabelsInEmissionOrder(t *testing.T) {
	for i := 0; i < 50; i++ {
		_, err := NewBuilder("bad", 0).Jump("first").JumpIfTrue("second").Method()
		if err == nil || err.Error() != `method bad: undefined label "first"` {
			t.Fatalf("run %d: got %v, want the first undefined label in emission order", i, err)
		}
	}
}

func TestBuilderJumpTooFar(t *testing.T) {
	b := NewBuilder("far", 0).Jump("end")
	for i := 0; i < 20; i++ {
		b.Nop()
	}
	b.Label("end").ReturnReceiver()
	if _, err := b.Method(); err == nil {
		t.Fatal("too-long short jump must error")
	}
}

func TestBuilderRangeErrors(t *testing.T) {
	if _, err := NewBuilder("m", 0).PushTemp(12).Method(); err == nil {
		t.Fatal("pushTemp 12 must error")
	}
	if _, err := NewBuilder("m", 0).Send("x", 3).Method(); err == nil {
		t.Fatal("3-arg send must error")
	}
}

func TestValidateCatchesBadTempIndex(t *testing.T) {
	m := &Method{Name: "bad", NumArgs: 0, NumTemps: 0, Code: []byte{byte(OpPushTemporaryVariable0 + 3)}}
	if err := m.Validate(); err == nil {
		t.Fatal("temp index beyond frame must fail validation")
	}
}

func TestValidateCatchesTruncatedOperand(t *testing.T) {
	m := &Method{Name: "bad", Code: []byte{byte(OpCallPrimitive), 1}} // missing second operand byte
	if err := m.Validate(); err == nil {
		t.Fatal("truncated operand must fail validation")
	}
}

func TestFetchOpRoundTripProperty(t *testing.T) {
	// Any method built from defined opcodes with operands must decode back
	// to the same opcode sequence.
	f := func(raw []byte) bool {
		var code []byte
		var ops []Op
		for _, r := range raw {
			op := Op(int(r) % NumOpcodes)
			code = append(code, byte(op))
			for i := 0; i < Describe(op).OperandBytes; i++ {
				code = append(code, 1)
			}
			ops = append(ops, op)
		}
		m := &Method{Name: "p", Code: code}
		var got []Op
		for pc := 0; pc < len(m.Code); {
			op, _, next, ok := m.FetchOp(pc)
			if !ok {
				return false
			}
			got = append(got, op)
			pc = next
		}
		if len(got) != len(ops) {
			return false
		}
		for i := range got {
			if got[i] != ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDisassemble(t *testing.T) {
	m := NewBuilder("disasm", 1).
		PushTemp(0).
		PushLiteral(IntLiteral(5)).
		Send("max:", 1).
		ReturnTop().
		MustMethod()
	out := m.Disassemble()
	for _, want := range []string{"pushTemporaryVariable0", "pushLiteralConstant0", "send max:/1", "returnTop"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func TestLiteralString(t *testing.T) {
	cases := map[string]Literal{
		"42":    IntLiteral(42),
		"1.5":   FloatLiteral(1.5),
		"#foo":  SelectorLiteral("foo"),
		"nil":   NilLiteral(),
		"true":  TrueLiteral(),
		"false": FalseLiteral(),
		`"s"`:   StringLiteral("s"),
	}
	for want, lit := range cases {
		if got := lit.String(); got != want {
			t.Errorf("literal %v prints %q want %q", lit, got, want)
		}
	}
}
