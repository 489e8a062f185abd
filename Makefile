.PHONY: check test build vet fuzz bench profile chaos

# check is the canonical verification target: vet + build + race tests +
# short fuzz runs. Set FUZZTIME to change the per-target fuzz duration.
check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

# bench runs the Go benchmark suite (S1-S7, the pruned-sweep arms, the
# single-shot minimal-cut reference, Fig. 1, obs overhead) with -benchmem
# and -count=5, the S5 portfolio race additionally pinned to -cpu=1 and
# -cpu=4. These are profiling entry points; perf claims go through
# scripts/ab.sh. Set BENCHTIME to change the per-benchmark time.
bench:
	./scripts/bench.sh

# profile assesses the sample plant with CPU/heap profiling and tracing
# enabled; artifacts (pprof profiles, Chrome trace, report) land in
# ./profile. Inspect with `go tool pprof profile/cpu.pprof` or by loading
# profile/trace.json into chrome://tracing / Perfetto.
profile:
	mkdir -p profile
	go run ./cmd/riskassess -model models/sme-plant.json -types models/types.json \
	  -optimize -trace profile/trace.json \
	  -cpuprofile profile/cpu.pprof -memprofile profile/mem.pprof > profile/report.txt
	go run ./cmd/tracecheck profile/trace.json
	@echo "profile artifacts in ./profile"

fuzz:
	./scripts/fuzz.sh

# chaos runs the crash-safety battery with a fixed seed set: fault
# injection at every site, store corruption/self-heal, the crash matrix
# under -race -cpu=1,4, and a real kill-and-resume of the CLI binary.
chaos:
	./scripts/chaos.sh
