.PHONY: all build test check lint model-check bench bench-json stats spans bench-trend top clean ablation-tlb ablation-policy

all: build

build:
	dune build @all

test:
	dune runtest

# The one gate CI runs: everything compiles (including examples and
# bench) and the full test suite passes.
check:
	dune build @all && dune runtest

# Static fbuf-discipline analyzer: rules L1-L7 over the sources plus the
# interprocedural typestate analysis (C1-C4) over the whole tree. The
# shipped tree is clean, so the committed baseline is empty; a non-empty
# baseline only papers over known findings while a fix is in flight.
lint:
	dune exec bin/fbufs_cli.exe -- lint --format text --baseline lint_baseline.json

# Differential check against the reference model: seeds 1-3, normal and
# adversary mode. Failures shrink to a minimal replayable sequence,
# also written to counterexample.txt (CI uploads it as an artifact).
model-check:
	dune exec bin/fbufs_cli.exe -- check --quick --out counterexample.txt

bench:
	dune exec bench/main.exe

# Full-quota benchmark run that also writes the machine-readable
# trajectory (one JSON object per benchmark: name, ns_per_run, r_square,
# date). BENCH_PR17.json is the latest committed snapshot; bench-trend
# gates it against BENCH_PR16.json, its same-host predecessor.
bench-json:
	dune exec bench/main.exe -- --json BENCH_PR17.json

# Per-component cost attribution of a Table 1 run (simulated
# microseconds charged to alloc/map/unmap/tlb_flush/zero/secure/copy/...),
# plus the full exposition written to metrics.json.
stats:
	dune exec bin/fbufs_cli.exe -- stats table1 --metrics metrics.json

# Causal span recording over one fig5-style windowed run: per-transfer
# critical paths print to stdout (component costs sum exactly to the
# ledger charge), the span trees land in spans.jsonl, and a Chrome
# trace_event rendering with follows-from flow arrows in spans-chrome.json.
spans:
	dune exec bin/fbufs_cli.exe -- spans --out spans.jsonl --chrome spans-chrome.json

# The bench-trajectory gate over committed snapshots (50% tolerance
# absorbs scheduler noise on ~ms runs). First pairwise diffs of
# snapshots collected on one host with make bench-json: PR8 against
# PR10, and PR16 (the parent of PR17) against PR17, measured alternately
# in one session. Then the PR2-PR10 series in chronological order,
# per-benchmark OLS slope and two-segment changepoint, to catch a slow
# drift no single step shows; PR16 and PR17 come from another host and
# stay out of that series until snapshots are normalized across hosts.
# Fails when a benchmark's post-changepoint mean exceeds its
# pre-changepoint mean by more than tolerance, or a benchmark disappears
# from the latest snapshot.
bench-trend:
	dune exec bin/fbufs_cli.exe -- bench-trend BENCH_PR8.json BENCH_PR10.json --tolerance-pct 50
	dune exec bin/fbufs_cli.exe -- bench-trend BENCH_PR16.json BENCH_PR17.json --tolerance-pct 50
	dune exec bin/fbufs_cli.exe -- bench-trend BENCH_PR2.json BENCH_PR4.json \
	  BENCH_PR5.json BENCH_PR6.json BENCH_PR7.json BENCH_PR8.json \
	  BENCH_PR10.json --tolerance-pct 50 --json bench-trend.json

# Periodic snapshot frames of a Table 1 run on the simulated timeline:
# throughput counters with per-interval deltas, drops, cost shares and
# transfer-wall quantiles, one frame per simulated 50 ms.
top:
	dune exec bin/fbufs_cli.exe -- top table1 --interval-us 50000

# TLB shootdown deferral/elision ablation: the on/off comparison table,
# plus a folded-stack rendering of a Table 1 run in both modes and their
# diff (feed either .folded file to flamegraph.pl or speedscope; the diff
# shows exactly which stacks the elision removed cost from). CI uploads
# all three files as an artifact.
ablation-tlb:
	dune exec bin/fbufs_cli.exe -- ablation --only tlb-elision
	dune exec bin/fbufs_cli.exe -- stats table1 --folded table1-elide.folded
	dune exec bin/fbufs_cli.exe -- stats table1 --no-tlb-elision --folded table1-noelide.folded
	diff -u table1-noelide.folded table1-elide.folded > ablation-tlb-folded.diff; test $$? -le 1
	@echo "wrote table1-elide.folded table1-noelide.folded ablation-tlb-folded.diff"

# Buffer-sharing ablation: every congestion scenario (incast, bursty,
# mixed RPC) under the static and fb-dynamic policies at equal pool
# size, with the per-class drop decomposition. Deterministic simulated
# time — the same table is golden-pinned by the test suite; CI uploads
# it as an artifact.
ablation-policy:
	dune exec bin/fbufs_cli.exe -- ablation --only buffer-sharing

clean:
	dune clean
