package concolic

import (
	"bytes"
	"reflect"
	"testing"

	"cogdiff/internal/bytecode"
	"cogdiff/internal/interp"
	"cogdiff/internal/primitives"
)

func TestExplorationRoundTrip(t *testing.T) {
	prims := primitives.NewTable()
	explorer := NewExplorer(prims, DefaultOptions())
	for _, target := range []Target{
		BytecodeTarget(bytecode.OpPrimAdd),
		NativeMethodTarget(primitives.PrimIdxAt, "primitiveAt", 1),
	} {
		ex := explorer.Explore(target)
		data, err := MarshalExploration(ex)
		if err != nil {
			t.Fatalf("%s: marshal: %v", target.Name, err)
		}
		back, err := UnmarshalExploration(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", target.Name, err)
		}
		if back.Target.Name != ex.Target.Name || back.Target.Kind != ex.Target.Kind {
			t.Fatalf("%s: target drift: %+v", target.Name, back.Target)
		}
		if len(back.Paths) != len(ex.Paths) || back.CuratedOut != ex.CuratedOut {
			t.Fatalf("%s: %d paths after round trip, want %d", target.Name, len(back.Paths), len(ex.Paths))
		}
		if back.Universe.Count() != ex.Universe.Count() {
			t.Fatalf("%s: universe drift", target.Name)
		}
		for i := range ex.Paths {
			if ex.Paths[i].Exit.Kind != back.Paths[i].Exit.Kind {
				t.Errorf("%s path %d: exit drift %v -> %v", target.Name, i, ex.Paths[i].Exit.Kind, back.Paths[i].Exit.Kind)
			}
			if ex.Paths[i].Model.String() != back.Paths[i].Model.String() {
				t.Errorf("%s path %d: model drift\n %s\n %s", target.Name, i,
					ex.Paths[i].Model, back.Paths[i].Model)
			}
			if ex.Paths[i].Path.Signature() != back.Paths[i].Path.Signature() {
				t.Errorf("%s path %d: constraint display drift", target.Name, i)
			}
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalExploration([]byte("{")); err == nil {
		t.Fatal("truncated JSON must error")
	}
	if _, err := UnmarshalExploration([]byte(`{"kind": 9}`)); err == nil {
		t.Fatal("unknown target kind must error")
	}
}

// TestExplorationRoundTripEveryFamily is the round trip's property test:
// for every instruction of the production catalog, the exploration read
// back from its JSON must match the fresh one on every surface the
// differential tester and the reports consume — path exits, solver
// witnesses, constraint display strings, counters and duration.
func TestExplorationRoundTripEveryFamily(t *testing.T) {
	prims := primitives.NewTable()
	var targets []Target
	for _, op := range bytecode.AllOpcodes() {
		if bytecode.Describe(op).Family != bytecode.FamCallPrimitive {
			targets = append(targets, BytecodeTarget(op))
		}
	}
	for _, p := range prims.All() {
		targets = append(targets, NativeMethodTarget(p.Index, p.Name, p.NumArgs))
	}
	if len(targets) < 100 {
		t.Fatalf("production catalog suspiciously small: %d targets", len(targets))
	}
	explorer := NewExplorer(prims, DefaultOptions())
	for _, target := range targets {
		fresh := explorer.Explore(target)
		freshBytes, err := MarshalExploration(fresh)
		if err != nil {
			t.Fatalf("%s: marshal fresh: %v", target.Name, err)
		}
		loaded, err := UnmarshalExploration(freshBytes)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", target.Name, err)
		}
		loadedBytes, err := MarshalExploration(loaded)
		if err != nil {
			t.Fatalf("%s: marshal loaded: %v", target.Name, err)
		}
		if !bytes.Equal(freshBytes, loadedBytes) {
			t.Errorf("%s: loaded exploration does not re-serialize identically", target.Name)
			continue
		}
		if len(loaded.Paths) != len(fresh.Paths) || loaded.CuratedOut != fresh.CuratedOut ||
			loaded.Iterations != fresh.Iterations || loaded.Duration != fresh.Duration {
			t.Errorf("%s: path tree shape drift after round trip", target.Name)
		}
		for i := range fresh.Paths {
			// The serialized exit (like the report pipeline) carries the
			// exit kind and control fields but not the concrete result
			// value; normalize before the structural comparison.
			fe, le := fresh.Paths[i].Exit, loaded.Paths[i].Exit
			fe.Result, fe.HasResult = interp.Value{}, false
			le.Result, le.HasResult = interp.Value{}, false
			if !reflect.DeepEqual(fe, le) {
				t.Errorf("%s path %d: exit drift", target.Name, i)
			}
			if !reflect.DeepEqual(fresh.Paths[i].Model, loaded.Paths[i].Model) {
				t.Errorf("%s path %d: witness model drift", target.Name, i)
			}
		}
	}
}
