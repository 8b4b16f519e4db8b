package concolic

import (
	"cogdiff/internal/heap"
	"cogdiff/internal/interp"
	"cogdiff/internal/sym"
)

// FrameBuilder materializes concrete VM values from a solver model,
// interpreting the abstract frame structure (§3.2: "re-creating a VM input
// implies interpreting the results of the constraint solver using the
// structural information in the VM object constraints"). The same builder
// serves the concolic executions and the differential tester's concrete
// JIT frames, guaranteeing both see equivalent inputs.
type FrameBuilder struct {
	OM    *heap.ObjectMemory
	U     *sym.Universe
	Model *sym.Model

	// cache holds the word materialized for each model representative, in
	// materialization order. A frame has a handful of inputs, so a linear
	// scan beats a map and its growth.
	cache []materialized
}

type materialized struct {
	rep int
	w   heap.Word
}

// NewFrameBuilder prepares a builder over a fresh object memory.
func NewFrameBuilder(om *heap.ObjectMemory, u *sym.Universe, model *sym.Model) *FrameBuilder {
	return &FrameBuilder{OM: om, U: u, Model: model, cache: make([]materialized, 0, 8)}
}

// ValueFor materializes the value of one input variable, carrying the
// symbolic reference so the tracer can relate accesses back to it.
func (b *FrameBuilder) ValueFor(v *sym.Var) (interp.Value, error) {
	w, err := b.wordFor(v)
	if err != nil {
		return interp.Value{}, err
	}
	return interp.Value{W: w, Sym: sym.VarRef{V: v}}, nil
}

func (b *FrameBuilder) wordFor(v *sym.Var) (heap.Word, error) {
	rep := b.Model.Rep(v.ID)
	for _, m := range b.cache {
		if m.rep == rep {
			return m.w, nil
		}
	}
	tv, assigned := b.Model.ValueOf(v)
	if !assigned {
		// Unconstrained inputs materialize as plain objects ("s2 = obj"
		// in Fig. 2): the least likely witness to satisfy type checks.
		tv = sym.TypedValue{Kind: sym.KindPointer, ClassIndex: heap.ClassIndexObject, Format: heap.FormatFixed}
	}
	w, err := b.materialize(v, tv)
	if err != nil {
		return 0, err
	}
	b.cache = append(b.cache, materialized{rep, w})
	return w, nil
}

func (b *FrameBuilder) materialize(v *sym.Var, tv sym.TypedValue) (heap.Word, error) {
	switch tv.Kind {
	case sym.KindSmallInt:
		return heap.SmallIntFor(tv.Int), nil
	case sym.KindFloat:
		return b.OM.NewFloat(tv.Float)
	case sym.KindNil:
		return b.OM.NilObj, nil
	case sym.KindTrue:
		return b.OM.TrueObj, nil
	case sym.KindFalse:
		return b.OM.FalseObj, nil
	}

	oop, err := b.OM.Allocate(tv.ClassIndex, tv.Format, tv.SlotCount)
	if err != nil {
		return 0, err
	}
	// Fill the slots the model constrains; the rest keep their default
	// (nil for pointer formats, zero for raw formats).
	for i := 0; i < tv.SlotCount; i++ {
		sv, exists := b.slotVarOf(v, i)
		if !exists {
			continue
		}
		stv, ok := b.Model.ValueOf(sv)
		if !ok {
			continue
		}
		var raw heap.Word
		if tv.Format == heap.FormatBytes || tv.Format == heap.FormatWords {
			// Raw formats store untagged data.
			raw = heap.Word(stv.Int)
		} else {
			raw, err = b.wordFor(sv)
			if err != nil {
				return 0, err
			}
		}
		if err := b.OM.StoreSlot(oop, i, raw); err != nil {
			return 0, err
		}
	}
	return oop, nil
}

// slotVarOf finds an interned slot variable for (owner, index), looking
// through both the owner itself and its model representative.
func (b *FrameBuilder) slotVarOf(owner *sym.Var, index int) (*sym.Var, bool) {
	ids := []int{owner.ID}
	if rep := b.Model.Rep(owner.ID); rep != owner.ID {
		ids = append(ids, rep)
	}
	for _, id := range ids {
		for _, v := range b.U.Vars() {
			if v.Role.Kind == sym.RoleSlot && v.Role.OwnerID == id && v.Role.Index == index {
				return v, true
			}
		}
	}
	return nil, false
}

// InputObjects maps each materialized heap value back to the model
// representative it realizes. The differential tester uses it to identify
// "the same input object" across independently built frames.
func (b *FrameBuilder) InputObjects() map[heap.Word]int {
	out := make(map[heap.Word]int, len(b.cache))
	for _, m := range b.cache {
		if heap.IsObjectRef(m.w) {
			out[m.w] = m.rep
		}
	}
	return out
}

// BuildFrame constructs the concrete interpreter input frame for a target
// under the builder's model.
func (b *FrameBuilder) BuildFrame(t Target) (*interp.Frame, error) {
	receiver, err := b.ValueFor(b.U.Receiver())
	if err != nil {
		return nil, err
	}
	var temps []interp.Value
	switch t.Kind {
	case TargetBytecode:
		for i := 0; i < t.Method.TempCount(); i++ {
			v, err := b.ValueFor(b.U.Temp(i))
			if err != nil {
				return nil, err
			}
			temps = append(temps, v)
		}
	case TargetNativeMethod:
		for i := 0; i < t.PrimNumArgs; i++ {
			v, err := b.ValueFor(b.U.Arg(i))
			if err != nil {
				return nil, err
			}
			temps = append(temps, v)
		}
	}
	var stack []interp.Value
	for i := 0; i < b.Model.StackSize; i++ {
		v, err := b.ValueFor(b.U.Stack(i))
		if err != nil {
			return nil, err
		}
		stack = append(stack, v)
	}
	return interp.NewFrame(receiver, temps, stack), nil
}
