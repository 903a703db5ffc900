# Developer entry points. The Go toolchain is the only dependency.

GO ?= go

.PHONY: build check check-race check-deep lint fuzz chaos cluster-soak \
	bench bench-json serve serve-smoke bench-serve-json bench-tsqr \
	bench-update bench-tcec clean

build:
	$(GO) build ./...

# Static analysis: gofmt (any file it would rewrite fails the target), vet
# always, staticcheck when installed (it is optional tooling; the lint
# target must not depend on a network fetch).
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l flags:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck skipped: not installed"; \
	fi

# Tier-1 verification: everything must build and pass.
check:
	$(GO) vet ./...
	$(GO) test ./...

# Tier-2 verification: vet plus the full suite under the race detector
# (the packed GEMM parallelizes over C tiles; this is the gate for it).
check-race:
	$(GO) vet ./...
	$(GO) test -race ./...

# Short native-fuzz smoke of the format round trips, the packed GEMM golden
# property, the tc-ec split/GEMM error-bound properties, the TSQR-vs-serial
# equivalence, and the serving decode paths. internal/serve and
# internal/tcsim hold two targets each, so those runs name their target; the
# single-target packages keep the unambiguous -fuzz=. form.
fuzz:
	$(GO) test -run '^$$' -fuzz . -fuzztime 10s ./internal/f16
	$(GO) test -run '^$$' -fuzz . -fuzztime 10s ./internal/bf16
	$(GO) test -run '^$$' -fuzz . -fuzztime 10s ./internal/blas
	$(GO) test -run '^$$' -fuzz . -fuzztime 10s ./internal/wirefmt
	$(GO) test -run '^$$' -fuzz '^FuzzTcEcSplitRoundTrip$$' -fuzztime 10s ./internal/tcsim
	$(GO) test -run '^$$' -fuzz '^FuzzGemmTcEcVsFP32$$' -fuzztime 10s ./internal/tcsim
	$(GO) test -run '^$$' -fuzz '^FuzzTSQRBlockVsSerial$$' -fuzztime 10s ./internal/tsqr
	$(GO) test -run '^$$' -fuzz '^FuzzRetryPolicy$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzStreamFrameDecode$$' -fuzztime 10s ./internal/serve

# Chaos/soak battery under the race detector: 64 concurrent clients against
# a seeded fault schedule (panics, delays, decode errors at every failpoint
# layer), plus the metamorphic no-silent-garbage property over the
# adversarial matrix battery, plus the spill-tier crash-consistency soak
# (torn writes and load faults during a mixed factorize/update/solve storm,
# then a restart that must quarantine exactly the torn files and rewarm the
# rest). See DESIGN.md §11 and §15.
chaos:
	$(GO) test -race -run 'TestChaosBattery|TestMetamorphicNoSilentGarbage|TestStreamChaosSoak|TestSpillChaosSoak' -v ./internal/serve

# Cluster-tier soak under the race detector: a seeded (deterministic)
# 3-node in-process cluster with every cluster.* failpoint armed, one node
# killed mid-wave. Asserts zero lost responses, every key resolvable via a
# survivor, flat warm-solve p99, and the forwarding accounting invariant.
# See DESIGN.md §14.
cluster-soak:
	$(GO) test -race -run 'TestClusterChaosSoak' -v ./internal/serve

# Deep verification: race gate, fuzz smoke, cluster soak, and the daemon
# end-to-end smoke (what scripts/check.sh runs). Tier-1 `check` stays fast;
# this one takes ~a minute.
check-deep: check-race fuzz cluster-soak serve-smoke

# Run the factorization-serving daemon on its default port.
serve:
	$(GO) run ./cmd/tcqrd

# End-to-end smoke of the daemon: build, start on an ephemeral port, drive
# the API (factorize, cache hit, coalesced solves, hazards, bad input),
# drain on SIGTERM.
serve-smoke:
	sh scripts/serve_smoke.sh

# Kernel-layer benchmarks with allocation accounting.
bench:
	$(GO) test -run '^$$' -bench 'Gemm|Trsm|Engines|TrackSpecials' -benchmem ./internal/blas ./internal/tcsim

# Machine-readable benchmark report (BENCH_1.json).
bench-json:
	$(GO) run ./cmd/tcqr-bench -out BENCH_1.json

# Serving-layer benchmark report (BENCH_6.json): JSON vs binary-frame
# encodings of the cold, cache-hit, and coalesced paths, swept across
# GOMAXPROCS 1/4/8 to expose the hot path's multicore scaling.
bench-serve-json:
	$(GO) run ./cmd/tcqr-bench -out BENCH_6.json -bench 'Serve' -procs 1,4,8 \
		-notes "procs above num_cpu oversubscribe a single core; compare scaling against num_cpu, not the -cpu label" \
		./internal/serve

# Incremental-update benchmark report (BENCH_9.json): row-block QR append /
# downdate against refactorizing the stacked matrix at 4096×256 (the ≥10×
# gate holds at the 16-row block; the 64-row point records how the win decays
# toward n/k for fatter appends), plus the restart-rewarm hit-solve path,
# which must serve without a single cold factorization.
bench-update:
	$(GO) run ./cmd/tcqr-bench -out BENCH_9.json -bench 'UpdateVsRefactorize|RewarmedHitSolve' \
		-notes "UpdateAppend vs Refactorize at the same post-append shape gates the >=10x claim at the 16-row block; RewarmedHitSolve serves from a spill-rewarmed cache with zero backend factorizations" \
		. ./internal/serve

# Error-corrected engine benchmark report (BENCH_10.json): tc vs tc-ec vs
# bf16 vs fp32 GEMM cost at 512³ (Engines), plus the end-to-end
# factorization at the quick paper shape (TcEcFactorize). The factorize
# metrics carry the acceptance evidence: plain tc trips the panel quality
# gate (precision-escalations > 0) where tc-ec records zero at fp32-order
# backward error, and both keep fp32-panel-escalations = 0 — the hot path
# never leaves the tensor-core simulant. See DESIGN.md §16.
bench-tcec:
	$(GO) run ./cmd/tcqr-bench -out BENCH_10.json -bench 'Engines|TcEcFactorize' \
		-notes "tc-ec software cost is 3-4x tc (three packed fp16 passes per GEMM plus the operand split); the win is accuracy: at the 512x128 bench shape TcEcFactorize/tc trips the panel quality gate on all 4 panels (precision-escalations=4, backward-err ~2e-4 pre-recovery) where TcEcFactorize/tc-ec records precision-escalations=0 at fp32-order backward-err ~1e-7, and fp32-panel-escalations=0 for both proves recovery stays on the tensor-core simulant" \
		./internal/tcsim .

# TSQR benchmark report (BENCH_7.json): parallel row-blocked factorization
# vs the Workers=1 identical-bits schedule vs the serial RGS baseline,
# swept across GOMAXPROCS 1/4/8. On a single-core box every proc count
# shares one core, so the parallel path cannot beat serial there; the gate
# is zero serial regression, not a speedup number.
bench-tsqr:
	$(GO) run ./cmd/tcqr-bench -out BENCH_7.json -bench 'TSQR' -procs 1,4,8 \
		-notes "procs above num_cpu oversubscribe a single core; on such boxes parallel TSQR cannot beat the serial baseline and the gate is zero serial regression plus bit-identical factors" \
		./internal/tsqr

clean:
	$(GO) clean ./...
