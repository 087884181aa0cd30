# Tier-1 gate: every Go file must be gofmt-clean (CI's first step), and
# everything must build, vet clean, and pass the full test suite with the
# race detector on (the parallel experiment runner makes the whole suite a
# concurrency test).
.PHONY: check gofmt build vet test race golden bench bench-hotpath audit fuzz cover

check: gofmt build vet race

# Lists nothing when every Go file, the bench module's included, is
# formatted; fails otherwise.
gofmt:
	test -z "$$(gofmt -l .)"

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race -timeout 45m ./...

# Seed-42 identity of every artifact. The golden tests hold the 18 fast
# artifacts, their stable metrics, traces and pcaps at one worker and at
# four (they skip themselves under -race); the full run then holds all 21
# artifacts, decimate, fig9 and p2p included, to artifacts_seed42.txt byte
# for byte, untraced and again with every cell traced (which also runs the
# audit's trace check in every lab).
golden:
	go test -run 'TestGolden(Artifacts|Pcaps|Traces)' -cpu 1,4 .
	go run ./cmd/svrlab all -seed 42 -repeats 1 | cmp - artifacts_seed42.txt
	go run ./cmd/svrlab all -seed 42 -repeats 1 -trace /dev/null -trace-format text | cmp - artifacts_seed42.txt

# Conservation audit over every artifact: the end-of-run auditor (which
# always runs and panics on violation) plus its coverage summary per
# experiment. A clean pass proves packet conservation, stream continuity,
# trace agreement, and capture bounds across the whole reproduction.
audit:
	go run ./cmd/svrlab all -seed 42 -repeats 1 -audit

# Production functions that no CLI run reaches: a function listed here is a
# candidate for deletion (or for a test, if it guards an input no run
# makes). Builds svrlab with coverage of every package, runs the traced
# seed-42 reproduction with metrics and audit, table4 with a chrome trace,
# fig2 with pcaps, resilience under its crash schedule as JSON and table2
# with VRChat's control server down, then prints each function at 0.0%.
# Takes a few minutes, so CI does not run it.
cover:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	mkdir "$$dir/cov" "$$dir/pcap"; \
	go build -cover -coverpkg=./... -o "$$dir/svrlab" ./cmd/svrlab; \
	export GOCOVERDIR="$$dir/cov"; \
	"$$dir/svrlab" all -seed 42 -repeats 1 -metrics -audit -trace /dev/null -trace-format text > /dev/null; \
	"$$dir/svrlab" run table4 -repeats 2 -trace "$$dir/table4.json" -trace-format chrome > /dev/null; \
	"$$dir/svrlab" run fig2 -pcap "$$dir/pcap" > /dev/null; \
	"$$dir/svrlab" run resilience -repeats 1 -chaos internal/experiment/testdata/resilience_crash.json -format json > /dev/null; \
	"$$dir/svrlab" run table2 -metrics -audit -chaos internal/experiment/testdata/table2_ctrl_down.json > /dev/null; \
	go tool covdata func -i "$$dir/cov" | awk '$$NF == "0.0%"'

# Fuzz every wire codec — plus the differential targets of the scheduler's
# ordering and the secure session's record parser — for FUZZTIME each
# (DESIGN.md "The codec hardening contract", §4.12). FUZZPKGS is every
# package with a `func Fuzz` in a test file, so a target in a new package
# is fuzzed too. Native Go fuzzing takes one target per invocation, so the
# loop enumerates targets with -list and runs them back to back. Each
# target starts from its f.Add seeds, which plain `go test` runs as
# subtests of the target; crashers land in testdata/fuzz/<Target>/ and
# replay there the same way. CI runs this with a short FUZZTIME as a smoke
# pass; use FUZZTIME=60s locally before merging codec changes.
FUZZTIME ?= 10s
FUZZPKGS = $(sort $(patsubst %/,%,$(dir $(shell grep -rl --include='*_test.go' --exclude-dir=bench '^func Fuzz' .))))

fuzz:
	@set -e; for pkg in $(FUZZPKGS); do \
		for target in $$(go test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "=== fuzz $$pkg $$target ($(FUZZTIME))"; \
			go test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Artifact-level benchmark (bench/, a module of its own): regenerates the
# paper workloads in interleaved child runs, checks each artifact against
# artifacts_seed42.txt, and reports end-to-end and per-layer cost. See
# bench/README.md for the metrics and the compare command. Its unit tests
# run with `go -C bench test ./...`; the root `go test ./...` never reaches
# them.
bench:
	bash bench/run.sh

# Per-packet micro-benchmarks (bench_hotpath_test.go): fabric forwarding,
# wire serialization, scheduler, capture ingest. The allocs/op column
# is the regression contract — see DESIGN.md "The packet hot path".
bench-hotpath:
	go test -run '^$$' -bench=Hotpath -benchmem .
