package irverify_test

// The verifier equivalence golden pins every verdict the static IR
// verifier gives over a fixed, deterministic corpus: the front-end and
// final IR the three Cogits and the meta-compiled front-end emit for a
// list of byte-codes covering the branching, arithmetic, send and return
// families, each original followed by a set of seeded mutants (dropped,
// duplicated and swapped instructions, flipped conditional jumps,
// immediates shifted by one, jumps to undefined labels, duplicated
// labels, out-of-range and undefined registers, unknown opcodes). For
// every function the golden records Verify's violations, and for every
// mutant VerifyPassEffect(original, mutant) as well, one line each.
//
// The golden is a frozen record of an earlier verifier's verdicts, not a
// snapshot to refresh: a rewrite of the verifier's internals must
// reproduce it byte for byte, and a difference is a changed verdict, a
// changed blame string or a changed flow result.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/concolic"
	"cogdiff/internal/defects"
	"cogdiff/internal/heap"
	"cogdiff/internal/ir"
	"cogdiff/internal/irverify"
	"cogdiff/internal/jit"
	"cogdiff/internal/metacompile"
)

// equivalenceOps are the byte-codes of the corpus, by family.
var equivalenceOps = []bytecode.Op{
	// branching
	bytecode.OpShortJump1,
	bytecode.OpShortJumpIfTrue1,
	bytecode.OpShortJumpIfFalse1 + 2,
	bytecode.OpLongJumpForward0,
	// arithmetic and comparison
	bytecode.OpPrimAdd,
	bytecode.OpPrimSubtract,
	bytecode.OpPrimMultiply,
	bytecode.OpPrimDivide,
	bytecode.OpPrimBitShift,
	bytecode.OpPrimLessThan,
	bytecode.OpPrimEqual,
	// sends
	bytecode.OpSend0Args0,
	bytecode.OpSend1Arg0,
	// returns
	bytecode.OpReturnTop,
	bytecode.OpReturnReceiver,
	// stack traffic
	bytecode.OpPopIntoTemporaryVariable0,
	bytecode.OpDuplicateTop,
}

type equivalenceCompiler struct {
	name    string
	opts    irverify.Options
	compile func(om *heap.ObjectMemory, m *bytecode.Method, in []heap.Word) (*jit.Stages, error)
}

func equivalenceCompilers() []equivalenceCompiler {
	var cs []equivalenceCompiler
	for _, v := range []jit.Variant{jit.SimpleStackBasedCogit, jit.StackToRegisterCogit, jit.RegisterAllocatingCogit} {
		cs = append(cs, equivalenceCompiler{name: v.String(), compile: func(om *heap.ObjectMemory, m *bytecode.Method, in []heap.Word) (*jit.Stages, error) {
			c := jit.NewCogit(v, om, defects.ProductionVM())
			c.NoVerify = true
			return c.CompileBytecode(m, in)
		}})
	}
	cs = append(cs, equivalenceCompiler{
		name: "metajit",
		opts: irverify.Options{RequireDeopt: true, DeoptBrkID: jit.BrkMetaDeopt},
		compile: func(om *heap.ObjectMemory, m *bytecode.Method, in []heap.Word) (*jit.Stages, error) {
			c := metacompile.NewCompiler(om, defects.ProductionVM())
			c.NoVerify = true
			return c.CompileBytecode(m, in)
		}})
	return cs
}

// renderVerdict renders a violation list on one line.
func renderVerdict(vs []irverify.Violation) string {
	if len(vs) == 0 {
		return "clean"
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return strings.Join(parts, "; ")
}

// mutant is one named deterministic edit of a function.
type mutant struct {
	name string
	fn   *ir.Fn
}

// picker draws deterministic positions from a key-seeded xorshift.
type picker struct{ s uint64 }

func newPicker(key string) *picker {
	h := fnv.New64a()
	h.Write([]byte(key))
	return &picker{s: h.Sum64() | 1}
}

func (p *picker) intn(n int) int {
	p.s ^= p.s << 13
	p.s ^= p.s >> 7
	p.s ^= p.s << 17
	return int(p.s % uint64(n))
}

var flipped = map[ir.Opc]ir.Opc{
	ir.OpcJeq: ir.OpcJne, ir.OpcJne: ir.OpcJeq,
	ir.OpcJlt: ir.OpcJge, ir.OpcJge: ir.OpcJlt,
	ir.OpcJle: ir.OpcJgt, ir.OpcJgt: ir.OpcJle,
}

// mutants derives the fixed mutant set of fn.
func mutants(key string, fn *ir.Fn) []mutant {
	n := len(fn.Instrs)
	p := newPicker(key)
	var out []mutant
	seen := make(map[string]bool)
	edit := func(name string, f func(in []ir.Instr) []ir.Instr) {
		if seen[name] {
			return
		}
		seen[name] = true
		in := make([]ir.Instr, n)
		copy(in, fn.Instrs)
		out = append(out, mutant{name, &ir.Fn{Name: fn.Name, Instrs: f(in)}})
	}
	var jumps, conds, labels []int
	for i, ins := range fn.Instrs {
		if ins.IsJump() {
			jumps = append(jumps, i)
			if ins.Op != ir.OpcJmp {
				conds = append(conds, i)
			}
		}
		if ins.Op == ir.OpcLabel {
			labels = append(labels, i)
		}
	}
	for k := 0; k < 3; k++ {
		i := p.intn(n)
		edit(fmt.Sprintf("drop#%d", i), func(in []ir.Instr) []ir.Instr { return append(in[:i], in[i+1:]...) })
	}
	for k := 0; k < 2; k++ {
		i := p.intn(n)
		edit(fmt.Sprintf("dup#%d", i), func(in []ir.Instr) []ir.Instr {
			return append(in[:i+1], append([]ir.Instr{in[i]}, in[i+1:]...)...)
		})
	}
	for k := 0; k < 2 && n > 1; k++ {
		i := p.intn(n - 1)
		edit(fmt.Sprintf("swap#%d", i), func(in []ir.Instr) []ir.Instr {
			in[i], in[i+1] = in[i+1], in[i]
			return in
		})
	}
	for k, i := range conds {
		if k >= 3 {
			break
		}
		edit(fmt.Sprintf("flip#%d", i), func(in []ir.Instr) []ir.Instr {
			in[i].Op = flipped[in[i].Op]
			return in
		})
	}
	for k := 0; k < 2; k++ {
		i := p.intn(n)
		for _, d := range []int64{+1, -1} {
			edit(fmt.Sprintf("imm%+d#%d", d, i), func(in []ir.Instr) []ir.Instr {
				in[i].Imm += d
				return in
			})
		}
	}
	if len(jumps) > 0 {
		for _, i := range []int{jumps[0], jumps[p.intn(len(jumps))]} {
			edit(fmt.Sprintf("undef#%d", i), func(in []ir.Instr) []ir.Instr {
				in[i].Sym = "nowhere"
				return in
			})
		}
	}
	if len(labels) > 0 {
		j := labels[p.intn(len(labels))]
		at := p.intn(n)
		edit(fmt.Sprintf("duplabel#%d@%d", j, at), func(in []ir.Instr) []ir.Instr {
			return append(in[:at], append([]ir.Instr{in[j]}, in[at:]...)...)
		})
		if len(labels) > 1 {
			o := labels[p.intn(len(labels))]
			if o == j {
				o = labels[0]
				if o == j {
					o = labels[1]
				}
			}
			edit(fmt.Sprintf("rename#%d=#%d", j, o), func(in []ir.Instr) []ir.Instr {
				in[j].Sym = in[o].Sym
				return in
			})
		}
	}
	i := p.intn(n)
	edit(fmt.Sprintf("rd=12#%d", i), func(in []ir.Instr) []ir.Instr {
		in[i].Rd = 12
		return in
	})
	i = p.intn(n)
	edit(fmt.Sprintf("rs1=v9#%d", i), func(in []ir.Instr) []ir.Instr {
		in[i].Rs1 = ir.V(9)
		return in
	})
	i = p.intn(n)
	edit(fmt.Sprintf("opc200#%d", i), func(in []ir.Instr) []ir.Instr {
		in[i].Op = ir.Opc(200)
		return in
	})
	return out
}

// renderEquivalence builds the whole golden text.
func renderEquivalence() string {
	var b strings.Builder
	input := []heap.Word{heap.SmallIntFor(3), heap.SmallIntFor(4), heap.SmallIntFor(-2)}
	for _, op := range equivalenceOps {
		target := concolic.BytecodeTarget(op)
		for _, c := range equivalenceCompilers() {
			unit := target.Name + "/" + c.name
			st, err := c.compile(heap.NewBootedObjectMemory(), target.Method, input)
			if err != nil {
				fmt.Fprintf(&b, "%s: not compiled: %v\n", unit, err)
				continue
			}
			for k := 1; k <= st.Final(); k++ {
				fmt.Fprintf(&b, "%s %s: effect %s\n", unit, st.StageName(k),
					renderVerdict(irverify.VerifyPassEffect(st.IR[k-1], st.IR[k])))
			}
			for _, k := range []int{0, st.Final()} {
				fn := st.IR[k]
				key := unit + "/" + st.StageName(k)
				fmt.Fprintf(&b, "%s (%d instrs): %s\n", key, len(fn.Instrs), renderVerdict(c.opts.Verify(fn)))
				for _, m := range mutants(key, fn) {
					fmt.Fprintf(&b, "%s %s: %s | effect %s\n", key, m.name,
						renderVerdict(c.opts.Verify(m.fn)), renderVerdict(irverify.VerifyPassEffect(fn, m.fn)))
				}
			}
		}
	}
	return b.String()
}

func TestVerifierEquivalenceGolden(t *testing.T) {
	got := renderEquivalence()
	path := filepath.Join("testdata", "equivalence.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal([]byte(got), want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("verdict changed at %s:%d\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("verdict count changed: got %d lines, want %d", len(gl), len(wl))
}
