GO ?= go

.PHONY: all build vet test race lint fuzz-smoke kernel-bench clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# Determinism lint: the eight dcluevet analyzers over the whole module,
# plus the stale //lint:allow audit. See internal/lint/RULES.md for the
# rule catalog.
lint:
	$(GO) run ./cmd/dcluevet -allow-audit ./...

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseFaultSpec -fuzztime 10s ./internal/faults
	$(GO) test -run '^$$' -fuzz FuzzParseAllow -fuzztime 10s ./internal/lint/analysis
	$(GO) test -run '^$$' -fuzz FuzzWorkerProtocol -fuzztime 10s ./internal/farm

# Kernel performance gate: scheduler microbenchmarks plus one quick reference
# figure, compared against bench/kernel_baseline.json (>20% worse fails).
# Refresh the baseline deliberately with:
#   go run ./cmd/dcluebench -bench-out kernel_bench.txt -sweeps BENCH_kernel.json -write-baseline
kernel-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSchedule$$|BenchmarkScheduleDepth$$|BenchmarkCancel$$|BenchmarkProcSwitch$$|BenchmarkProcHandOff$$' -benchmem -count 3 ./internal/sim | tee kernel_bench.txt
	$(GO) build -o dclueexp ./cmd/dclueexp
	rm -f BENCH_kernel.json
	./dclueexp -fig 2 -quick -j 1 -bench BENCH_kernel.json > /dev/null
	$(GO) run ./cmd/dcluebench -bench-out kernel_bench.txt -sweeps BENCH_kernel.json -baseline bench/kernel_baseline.json

clean:
	rm -f dclueexp dcluesim dcluevet
