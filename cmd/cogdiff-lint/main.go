// Command cogdiff-lint runs the repository's invariant linters (see
// internal/analyzers): determinism hazards and telemetry metric naming.
//
// It speaks two protocols:
//
//	cogdiff-lint [dir]
//	    Standalone: type-check every package under the module rooted at
//	    dir (default: the module containing the working directory) from
//	    source and lint them all. Exits 1 if any diagnostic fires.
//
//	go vet -vettool=$(which cogdiff-lint) ./...
//	    The go command's unitchecker protocol: cogdiff-lint is invoked
//	    once per package with a JSON .cfg file describing the unit
//	    (files, import map, export data), plus -V=full and -flags
//	    handshakes. This mode rides the go command's action cache, so
//	    incremental lints are cheap.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cogdiff/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The unitchecker handshake and per-package invocations from
	// `go vet -vettool` are recognized by shape, before flag parsing.
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			return printVersion()
		case args[0] == "-flags":
			fmt.Println("[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return runUnit(args[0])
		}
	}
	return runStandalone(args)
}

// runStandalone lints the whole module from source.
func runStandalone(args []string) int {
	if len(args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: cogdiff-lint [module-dir]")
		return 2
	}
	start := "."
	if len(args) == 1 {
		start = args[0]
	}
	root, modPath, err := findModule(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cogdiff-lint:", err)
		return 2
	}
	loader := analyzers.NewLoader(root, modPath)
	pkgs, err := loader.ModulePackages()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cogdiff-lint:", err)
		return 2
	}
	exit := 0
	for _, pkg := range pkgs {
		pass, err := loader.LoadPackage(pkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cogdiff-lint:", err)
			exit = 2
			continue
		}
		for _, d := range analyzers.RunAll(pass) {
			fmt.Fprintln(os.Stderr, d)
			if exit == 0 {
				exit = 1
			}
		}
	}
	return exit
}

// findModule walks upward from dir to the enclosing go.mod and returns
// the module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
	}
}
