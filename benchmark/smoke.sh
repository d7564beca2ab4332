#!/usr/bin/env bash
# CI-sized dry run of the benchmark: the crate's unit tests, then every
# workload at a 20 ms virtual span, timed and traced, through the same
# code paths as a full run. Finishes in well under 30 s once built.
# Run from anywhere; writes only under benchmark/out/smoke.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --smoke --traced --seed 1 --out benchmark/out/smoke --label smoke
