.PHONY: all build test check lint callgraph fmt bench bench-perf bench-scale bench-survivability perf-table perf-splice scale-table scale-splice sim-identity diagnose clean

all: build

build:
	dune build

test:
	dune runtest

# The static-analysis gate: parses every .ml under lib/, bin/, bench/
# and examples/, links the cross-module call graph and enforces the
# fabric invariants — syntactic (R1-R7) and interprocedural (R8-R10,
# see DESIGN.md §8). The R9 inferred-hot ratchet comes from
# lint_ratchet.json and may only go down.
lint:
	dune exec bin/dumbnet_lint.exe -- --gate --waivers

# Dump the interprocedural call graph. callgraph.dot renders with
# graphviz; swap the suffix for the JSON form.
callgraph:
	dune exec bin/dumbnet_lint.exe -- --quiet --callgraph callgraph.dot

# What CI runs: a clean build with no warnings-as-errors surprises,
# then the full test tree and the lint gate.
check: build test lint

# Formatting is advisory: ocamlformat is not pinned in the dev image,
# so this target is best-effort and never fails the build.
fmt:
	-dune build @fmt --auto-promote

bench:
	dune exec bench/main.exe

# Hot-path microbenchmarks; writes BENCH_PERF.json. Full budgets —
# CI uses `-- perf --quick` with a loosened regression gate instead.
bench-perf:
	dune exec bench/main.exe -- perf

# Regenerate the perf tables and splice the generated BENCH_PERF.md
# between the perf-table markers in README.md, so the README numbers
# can never drift from BENCH_PERF.json again.
perf-table: bench-perf perf-splice

# The splice alone, from the committed BENCH_<NAME>.md — deterministic,
# so CI can re-run it and fail on a stale README block without the
# bench's run-to-run noise. perf-splice puts BENCH_PERF.md between the
# perf-table markers, scale-splice BENCH_SCALE.md between the
# scale-table markers.
perf-splice scale-splice: %-splice:
	awk 'BEGIN { while ((getline line < "BENCH_$(shell echo $* | tr a-z A-Z).md") > 0) tbl = tbl line "\n" } \
	     /<!-- $*-table:begin -->/ { print; printf "%s", tbl; skip = 1; next } \
	     /<!-- $*-table:end -->/ { skip = 0 } \
	     !skip { print }' README.md > README.md.tmp && mv README.md.tmp README.md

# Mega-fabric scaling curve of the controller's path service and push
# ledger (Topo_store + Ledger); writes BENCH_SCALE.json +
# BENCH_SCALE.md. Full curve reaches fat-tree k=48 and jellyfish-1024;
# QUICK=1 runs the small points with the regression gate armed (what
# CI's smoke job does).
QUICK ?=
bench-scale:
	dune exec bench/main.exe -- scale $(if $(QUICK),--quick)

# Regenerate the scale table and splice the generated BENCH_SCALE.md
# between the scale-table markers in README.md — same contract as
# perf-table.
scale-table: bench-scale scale-splice

# Failure waves + hidden-fault localization; writes
# BENCH_SURVIVABILITY.json. Full schedules — CI uses `--quick`, which
# also gates (wave-1 reachability and exact localization).
bench-survivability:
	dune exec bench/main.exe -- survivability

# Byte identity of every simulated fabbench output against another
# checkout of the repository, PARENT=<its root>: both build their
# fabbench.exe and run inputs 1000-1005 and 7000-7005 of every workload
# (tools/sim_identity.py). Prints attempted and failed per input.
PARENT ?=
sim-identity:
	@test -n "$(PARENT)" || { echo "usage: make sim-identity PARENT=<checkout>"; exit 2; }
	python3 tools/sim_identity.py --parent $(PARENT)

# End-to-end demo of the diagnosis engine: inject a hidden fault the
# controller never hears about, localize it to the exact cable.
# FAULT is silent | miswire | corrupt.
FAULT ?= silent
diagnose:
	dune exec bin/dumbnet_cli.exe -- diagnose --topo fat-tree:8 --fault $(FAULT) -v

clean:
	dune clean
