package jit

import (
	"cogdiff/internal/defects"
	"cogdiff/internal/ir"
)

// Pipeline instantiates the pass pipeline every byte-code compiler runs
// between its front-end and lowering; the native method compiler
// runs none (its templates are already shaped). The defect switches let
// pass-targeted defects (the deliberately unsound constant fold, the
// peephole stack leak) be injected per campaign configuration.
//
// Order matters: dead-push/pop elimination first turns the simple
// variant's materialize-and-reload traffic into register moves that
// constant folding can then see through.
func Pipeline(sw defects.Switches) []ir.Pass {
	return []ir.Pass{
		ir.DeadPushPop(),
		ir.ConstFold(sw.ConstFoldSignError),
		ir.Peephole(sw.VerifyStackLeak),
	}
}
