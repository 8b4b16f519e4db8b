// Package core implements the paper's contribution: interpreter-guided
// differential testing of JIT compilers (§2.2, Fig. 1). It takes the
// execution paths discovered by concolic meta-interpretation of the
// interpreter (internal/concolic), builds concrete VM frames from each
// path's input constraints, compiles the instruction with each JIT
// compiler, executes the machine code on the simulated CPU, and validates
// that the compiled execution exhibits the same observable behaviour as
// the interpreted one: matching exit conditions, operand-stack and
// temporary effects, results, and input-object side effects.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"cogdiff/internal/heap"
)

// maxCanonicalDepth bounds structural descriptions of freshly allocated
// objects.
const maxCanonicalDepth = 3

// Pre-rendered forms for the values that dominate canonicalization.
// Rendering is on the per-path hot path — every execution canonicalizes
// its result, stack, temps, and input-object bodies — and almost all of
// those words are small non-negative integers or low input ranks.
var (
	smallIntCanon [256]string
	inputCanon    [64]string
)

func init() {
	for i := range smallIntCanon {
		smallIntCanon[i] = "int:" + strconv.Itoa(i)
	}
	for i := range inputCanon {
		inputCanon[i] = "in:" + strconv.Itoa(i)
	}
}

func intCanonical(v int64) string {
	if v >= 0 && v < int64(len(smallIntCanon)) {
		return smallIntCanon[v]
	}
	return "int:" + strconv.FormatInt(v, 10)
}

func inputCanonical(rep int) string {
	if rep >= 0 && rep < len(inputCanon) {
		return inputCanon[rep]
	}
	return "in:" + strconv.Itoa(rep)
}

// Canonicalize renders a VM value in an object-memory-independent form so
// outputs of two executions on different heaps can be compared: immediates
// by value, input objects by the model representative they realize,
// freshly allocated objects structurally.
func Canonicalize(om *heap.ObjectMemory, w heap.Word, inputs map[heap.Word]int) string {
	return canonical(om, w, inputs, maxCanonicalDepth)
}

func canonical(om *heap.ObjectMemory, w heap.Word, inputs map[heap.Word]int, depth int) string {
	switch {
	case heap.IsSmallInt(w):
		return intCanonical(heap.SmallIntValue(w))
	case w == om.NilObj:
		return "nil"
	case w == om.TrueObj:
		return "true"
	case w == om.FalseObj:
		return "false"
	case w == 0:
		return "null"
	}
	if rep, ok := inputs[w]; ok {
		return inputCanonical(rep)
	}
	if cd := om.ClassByOop(w); cd != nil {
		return "class:" + cd.Name
	}
	ci := om.ClassIndexOf(w)
	if ci == heap.ClassIndexNone {
		return "badref:0x" + strconv.FormatUint(uint64(w), 16)
	}
	if ci == heap.ClassIndexFloat {
		f, err := om.FloatValueOf(w)
		if err != nil {
			return "badfloat"
		}
		return "float:" + strconv.FormatFloat(f, 'x', -1, 64)
	}
	slots := om.SlotCountOf(w)
	if depth <= 0 {
		return fmt.Sprintf("obj:class=%d,slots=%d", ci, slots)
	}
	parts := make([]string, 0, slots)
	for i := 0; i < slots && i < 8; i++ {
		sw, err := om.FetchSlot(w, i)
		if err != nil {
			parts = append(parts, "?")
			continue
		}
		parts = append(parts, canonical(om, sw, inputs, depth-1))
	}
	return fmt.Sprintf("obj:class=%d,slots=%d[%s]", ci, slots, strings.Join(parts, ","))
}

// CanonicalizeAll maps a word slice.
func CanonicalizeAll(om *heap.ObjectMemory, ws []heap.Word, inputs map[heap.Word]int) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = Canonicalize(om, w, inputs)
	}
	return out
}

// HeapEffect is the canonical body of one input object, keyed by the
// model representative the object realizes.
type HeapEffect struct {
	Rep  int
	Body []string
}

// HeapEffects canonicalizes the body of every input object, capturing the
// side effects an instruction had on them (stores through at:put:,
// instance-variable writes, FFI stores). The effects come in ascending
// representative order, so comparisons walk them deterministically.
func HeapEffects(om *heap.ObjectMemory, inputs map[heap.Word]int) []HeapEffect {
	out := make([]HeapEffect, 0, len(inputs))
	for w, rep := range inputs {
		slots := om.SlotCountOf(w)
		format := om.FormatOf(w)
		body := make([]string, slots)
		for i := 0; i < slots; i++ {
			sw, err := om.FetchSlot(w, i)
			if err != nil {
				body[i] = "?"
				continue
			}
			if format == heap.FormatBytes || format == heap.FormatWords {
				body[i] = "raw:" + strconv.FormatInt(int64(sw), 10)
			} else {
				body[i] = Canonicalize(om, sw, inputs)
			}
		}
		out = append(out, HeapEffect{Rep: rep, Body: body})
	}
	slices.SortFunc(out, func(a, b HeapEffect) int { return cmp.Compare(a.Rep, b.Rep) })
	return out
}

func stringSlicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
