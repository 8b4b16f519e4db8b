# Verify tiers for the cogdiff reproduction.
#
#   tier 1: make build test      — full suite, serial semantics pinned
#   tier 2: make test-race       — reduced campaign config under -race,
#                                  guarding the parallel campaign engine
#
# `make ci` runs what .github/workflows/ci.yml runs.

GO ?= go

.PHONY: all build vet lint test test-short test-race bench-go fuzz fuzz-smoke blame-smoke metacompile-smoke metrics-smoke serve-smoke verify-smoke fmt-check golden-update ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-invariant linters: build the cogdiff-lint analyzer driver and run
# it over every package through `go vet -vettool`, so the determinism
# and telemetry-naming rules gate exactly like the stock vet checks. `go run ./cmd/cogdiff-lint` (no arguments) is the
# standalone equivalent.
lint:
	rm -rf lint.tmp
	mkdir -p lint.tmp
	$(GO) build -o lint.tmp/cogdiff-lint ./cmd/cogdiff-lint
	$(GO) vet -vettool=lint.tmp/cogdiff-lint ./...
	rm -rf lint.tmp

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector tier: the campaign tests run their reduced (-short)
# configuration, which still shards exploration and differential testing
# across 4 and GOMAXPROCS workers.
test-race:
	$(GO) test -race -short ./...

# The Go-native microbenchmarks. End-to-end performance (campaign, fuzz
# and served jobs in fresh processes) is measured by `bash _perfbench/run.sh`.
bench-go:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Explore random byte-code sequences across all three compilers and both
# ISAs (30s smoke run; raise -fuzztime for a real session).
fuzz:
	$(GO) test -fuzz=FuzzSequenceDiff -fuzztime=30s ./internal/core/

# Coverage-guided fuzzing smoke run: fixed seed, small budget, minimized
# differences — deterministic, finishes well inside 30s. The serial and
# the parallel run must print byte-identical reports, so the sequence
# pipeline (optimize once per compiler, lower per ISA) is checked end to
# end.
fuzz-smoke:
	rm -rf fuzz-smoke.tmp
	mkdir -p fuzz-smoke.tmp
	$(GO) build -o fuzz-smoke.tmp/cogdiff ./cmd/cogdiff
	fuzz-smoke.tmp/cogdiff fuzz -seed 2022 -budget 2000 -workers 1 \
		-seed-corpus internal/core/testdata/fuzz/FuzzSequenceDiff > fuzz-smoke.tmp/w1.txt
	fuzz-smoke.tmp/cogdiff fuzz -seed 2022 -budget 2000 -workers 0 \
		-seed-corpus internal/core/testdata/fuzz/FuzzSequenceDiff > fuzz-smoke.tmp/w0.txt
	cmp fuzz-smoke.tmp/w1.txt fuzz-smoke.tmp/w0.txt
	rm -rf fuzz-smoke.tmp

# Pass-level blame smoke test: a campaign with the pass-targeted
# constant-folding defect must name the guilty pass in its cause table.
blame-smoke:
	$(GO) run ./cmd/cogdiff campaign -defect-constfold -workers 0 | grep -q "pass:constfold"

# Fifth-compiler smoke test, observed end to end from the CLI: the
# meta-compiled front-end joins the campaign via -compilers +metajit and
# the stable report must be byte-identical across worker counts; on the
# pristine VM it must agree with the interpreter (zero differences on a
# reference instruction); and the meta-compiler guard-sign defect must
# surface as front-end blame.
metacompile-smoke:
	rm -rf metacompile-smoke.tmp
	mkdir -p metacompile-smoke.tmp
	$(GO) build -o metacompile-smoke.tmp/cogdiff ./cmd/cogdiff
	metacompile-smoke.tmp/cogdiff difftest -pristine primAdd metajit | grep -q " 0 differences"
	metacompile-smoke.tmp/cogdiff campaign -compilers +metajit -workers 1 -stable > metacompile-smoke.tmp/w1.txt
	metacompile-smoke.tmp/cogdiff campaign -compilers +metajit -workers 4 -stable > metacompile-smoke.tmp/w4.txt
	cmp metacompile-smoke.tmp/w1.txt metacompile-smoke.tmp/w4.txt
	grep -q "Meta-compiled BC Compiler" metacompile-smoke.tmp/w1.txt
	metacompile-smoke.tmp/cogdiff difftest -pristine -defect-metajit-guard primLessThan metajit | grep -q "front-end"
	rm -rf metacompile-smoke.tmp

# Telemetry smoke test: a small campaign writes a Prometheus metrics
# snapshot, which metrics-lint must validate (the exposition-format
# round-trip contract, observed end to end from the CLI).
metrics-smoke:
	$(GO) run ./cmd/cogdiff campaign -workers 4 -metrics metrics-smoke.prom -metrics-format prom > /dev/null
	$(GO) run ./cmd/cogdiff metrics-lint metrics-smoke.prom
	rm -f metrics-smoke.prom

# Service-layer smoke test, observed end to end from the CLI: start a
# real server, submit a sharded campaign over HTTP, and require the
# served report byte-identical to the serial local run (-stable is the
# deterministic report surface both sides print). The scraped /metrics
# must lint as Prometheus text, and the shared corpus directory must
# hold the fuzz job's entries.
serve-smoke:
	rm -rf serve-smoke.tmp
	mkdir -p serve-smoke.tmp
	$(GO) build -o serve-smoke.tmp/cogdiff ./cmd/cogdiff
	serve-smoke.tmp/cogdiff campaign -workers 1 -stable > serve-smoke.tmp/serial.txt
	serve-smoke.tmp/cogdiff serve -addr 127.0.0.1:18377 -corpus-dir serve-smoke.tmp/corpus \
		2> serve-smoke.tmp/serve.log & echo $$! > serve-smoke.tmp/serve.pid
	serve-smoke.tmp/cogdiff submit -addr http://127.0.0.1:18377 \
		campaign -workers 4 > serve-smoke.tmp/served.txt
	cmp serve-smoke.tmp/serial.txt serve-smoke.tmp/served.txt
	serve-smoke.tmp/cogdiff submit -addr http://127.0.0.1:18377 \
		fuzz -budget 500 -shared-corpus > /dev/null
	ls serve-smoke.tmp/corpus/seq-*.json > /dev/null
	curl -sf http://127.0.0.1:18377/metrics > serve-smoke.tmp/metrics.prom
	serve-smoke.tmp/cogdiff metrics-lint serve-smoke.tmp/metrics.prom
	kill `cat serve-smoke.tmp/serve.pid`
	rm -rf serve-smoke.tmp

# Static-verification smoke test, observed end to end from the CLI:
# the compile-only sweep must verify the whole catalog clean at 1 and 4
# workers with byte-identical reports, the seeded stack-leak defect must
# be rejected statically with blame on the guilty pass, and the campaign
# report must be byte-identical with the verifier on and off (the
# verifier observes, never shapes). The verifier's work count is gated by
# `go test` (TestCampaignVerifierAnalyses in internal/jit).
verify-smoke:
	rm -rf verify-smoke.tmp
	mkdir -p verify-smoke.tmp
	$(GO) build -o verify-smoke.tmp/cogdiff ./cmd/cogdiff
	verify-smoke.tmp/cogdiff verify-ir -workers 1 > verify-smoke.tmp/v1.txt
	verify-smoke.tmp/cogdiff verify-ir -workers 4 > verify-smoke.tmp/v4.txt
	cmp verify-smoke.tmp/v1.txt verify-smoke.tmp/v4.txt
	grep -q "0 violations" verify-smoke.tmp/v1.txt
	! verify-smoke.tmp/cogdiff verify-ir -defect-verify-stackleak -compilers simple \
		> verify-smoke.tmp/defect.txt 2>&1
	grep -q "ir-verify:stack-balance after pass:peephole" verify-smoke.tmp/defect.txt
	verify-smoke.tmp/cogdiff campaign -workers 1 -stable > verify-smoke.tmp/on.txt
	verify-smoke.tmp/cogdiff campaign -workers 1 -stable -no-verify > verify-smoke.tmp/off.txt
	cmp verify-smoke.tmp/on.txt verify-smoke.tmp/off.txt
	rm -rf verify-smoke.tmp

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Re-capture the CLI golden files after an intentional format change.
golden-update:
	$(GO) test ./cmd/cogdiff/ -run TestGolden -update

ci: build vet lint fmt-check test test-race fuzz-smoke blame-smoke metacompile-smoke metrics-smoke serve-smoke verify-smoke
