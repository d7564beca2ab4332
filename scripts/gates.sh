#!/usr/bin/env bash
# Every check that judges a change, one subcommand per CI job. Each job in
# .github/workflows/ci.yml is one `scripts/gates.sh <name>` line and the docs
# name gates by subcommand, so what CI runs is what runs here, offline.
# Run it from anywhere; it works from the repository root.
#
#   scripts/gates.sh lint               fmt, clippy, rustdoc, and the greps
#                                       that hold a design rule in place —
#                                       among them cores_are_simulator_free:
#                                       the DNE's, the fabric's, the
#                                       runtime's, the gateway's, the
#                                       control plane's and the churn
#                                       model's core never name the
#                                       simulator, all six, the load side
#                                       and the comparators' cluster run
#                                       behind simcore's one Driver, which
#                                       alone schedules (but for the
#                                       comparators' Echo::at), and only
#                                       the DNE's machine posts
#   scripts/gates.sh test               release build + the workspace suite:
#                                       the seed matrix (simcore::rng::SEEDS)
#                                       and the typed-outcome bars are tests
#   scripts/gates.sh results            same seed, same bytes: regenerate
#                                       results/ and find no diff
#   scripts/gates.sh benchmark-package  the frozen benchmark builds and smokes
#   scripts/gates.sh obs-overhead       one traced benchmark run: complete
#                                       traces under the overhead ceiling
#   scripts/gates.sh miri               simcore's event slots and membuf's
#                                       arena (hugepage.rs: the mapping and
#                                       its unmap; pool.rs: the buffer
#                                       slices) under Miri (nightly, needs
#                                       a download: CI only)
#   scripts/gates.sh all                all of the above but miri, timed
#
# Each grep names the DESIGN.md section that states its rule and exits
# non-zero with the offending lines when the rule is broken.
set -euo pipefail
cd "$(dirname "$0")/.."

fail() {
  echo "gates: $*" >&2
  exit 1
}

# A source file without its `#[cfg(test)]` tail.
non_test() { sed '/#\[cfg(test)\]/,$d' "$1"; }

# The non-test lines of the .rs files under directory $1, subdirectories
# included, that match the extended regex $2, as file:line:text.
sites() {
  local f
  for f in $(find "$1" -name '*.rs' | sort); do
    non_test "$f" | grep -nE "$2" | sed "s|^|$f:|" || true
  done
}

# DESIGN.md §3 "A machine behind one driver", and §5, §7, §8, §9 and §12: a
# core file never names the simulator, no layer keeps a driver of its own
# (a `fn drive` or spare buffers), and what only a driver does happens at a
# fixed number of sites: scheduling only in simcore's generic
# `Driver::schedule`, posting only in the DNE's machine. Outside simcore,
# every crate's non-test code schedules through a driver too, but for one
# site, §10's Fig. 6 / Fig. 12 echo state machine (`Echo::at`), whose verbs
# take the `Sim`.
cores_are_simulator_free() {
  local f
  for f in crates/dne/src/core.rs crates/rdma-sim/src/core.rs crates/runtime/src/core.rs \
    crates/ingress/src/core.rs crates/core/src/control/core.rs crates/core/src/churn/core.rs; do
    if non_test "$f" | grep -nE '\bSim\b|Rc<RefCell|schedule_at|schedule_after|\.cancel\(|TimerHandle'; then
      fail "$f must not see the simulator"
    fi
  done
  local dir pattern driver want found
  for dir in crates/dne/src crates/rdma-sim/src crates/runtime/src crates/ingress/src \
    crates/core/src/control crates/core/src/churn; do
    found=$(sites "$dir" 'fn drive\(|spare:')
    if [ -n "$found" ]; then
      printf '%s\n' "$found"
      fail "$dir: run the core behind simcore::Driver, not a driver of its own"
    fi
  done
  while read -r dir pattern driver want; do
    found=$(sites "$dir" "$pattern")
    if [ "$(printf '%s\n' "$found" | grep -c .)" -ne "$want" ] ||
      printf '%s\n' "$found" | grep . | grep -v "^$driver:"; then
      printf '%s\n' "$found"
      fail "$pattern in $dir outside tests: want $want site(s), all in $driver"
    fi
  done <<'SITES'
crates/dne/src post_send\( crates/dne/src/engine.rs 1
crates/simcore/src sim\.schedule_at\( crates/simcore/src/machine.rs 1
SITES
  found=$(for dir in crates/*/src; do
    [ "$dir" = crates/simcore/src ] || sites "$dir" 'schedule_at\(|schedule_after\('
  done)
  if [ "$(printf '%s\n' "$found" | grep -c .)" -ne 1 ] ||
    ! printf '%s\n' "$found" | grep -q '^crates/baselines/src/primitives.rs:.*feed(&me'; then
    printf '%s\n' "$found"
    fail "schedule_at(/schedule_after( under crates/*/src outside simcore: want 1 site, Echo::at in crates/baselines/src/primitives.rs"
  fi
}

# DESIGN.md §12 "Front door and load driver". The frozen benchmark package
# is not scanned.
one_front_door() {
  local tables
  tables=$(grep -rl 'HashMap<u64, Reply>' crates tests examples | wc -l)
  if [ "$tables" -gt 1 ]; then
    grep -rl 'HashMap<u64, Reply>' crates tests examples
    fail "HashMap<u64, Reply> in $tables files (want 1: crates/core/src/cluster.rs)"
  fi
  # Only the cluster reaches into a node's pools and I/O library to inject.
  if grep -rnE 'pools_snapshot\(\)|\.iolib\.send' crates/core/src |
    grep -vE '^crates/core/src/cluster\.rs:'; then
    fail "inject through Cluster::inject / Cluster::serve_chain instead"
  fi
  if grep -nE 'struct .*Driver' crates/core/src/experiment/fig13.rs \
    crates/core/src/experiment/fig16.rs crates/core/src/fleet.rs; then
    fail "measure with workload::ClosedLoop, not a hand-rolled driver"
  fi
  # A request leaves through one outcome path whose closures hold the hub
  # weakly, so nothing cuts a reference cycle by hand; and whether a failure
  # is health evidence is the control plane's call, through its `Host`.
  if non_test crates/core/src/cluster.rs | grep -n 'impl Drop'; then
    fail "crates/core/src/cluster.rs: hold the hub weakly instead of an impl Drop"
  fi
  local f
  for f in $(grep -rlE 'with_fault_plane|in_outage' crates/core/src); do
    if [ "$f" != crates/core/src/control/mod.rs ] &&
      non_test "$f" | grep -nE 'with_fault_plane|in_outage'; then
      fail "$f: only the control plane's Host asks the fault plane"
    fi
  done
}

# DESIGN.md §2.2 "One simulation, one thread", §4 "The pool lives on one
# thread": the pool, its arena, its export and the SPSC ring carry no
# cross-thread machinery, and nothing asserts a Send or Sync the compiler
# would refuse.
pool_is_single_threaded() {
  local f
  for f in crates/membuf/src/pool.rs crates/membuf/src/hugepage.rs crates/membuf/src/export.rs \
    crates/membuf/src/spsc.rs; do
    if non_test "$f" | grep -nE 'Mutex|Atomic|\bArc\b|Ordering::|unsafe impl'; then
      fail "$f: the pool is single-threaded; use Rc and Cell"
    fi
  done
}

# DESIGN.md §3 "A closure lives in its slab node".
closures_live_in_their_node() {
  local f
  for f in crates/simcore/src/*.rs; do
    if non_test "$f" | grep -n 'EventFn::new('; then
      fail "$f: no by-value EventFn; closures are written into their node (EventFn::arm)"
    fi
  done
}

# DESIGN.md §2.4 "One door per number": exactly one non-test function calls
# sample_obs( on a timer, Cluster::start_obs_sampler. (The definition is
# `fn sample_obs(`.)
one_sampler() {
  local callers f
  callers=$(for f in $(grep -rl 'sample_obs(' crates --include='*.rs'); do
    non_test "$f" | grep -E '\.sample_obs\(' | sed "s|^|$f: |" || true
  done)
  if [ "$(printf '%s\n' "$callers" | grep -c .)" -ne 1 ] ||
    ! printf '%s\n' "$callers" | grep -q '^crates/core/src/cluster.rs: '; then
    printf '%s\n' "$callers"
    fail "want one non-test sample_obs( call site (Cluster::start_obs_sampler)"
  fi
}

# DESIGN.md §2.6 "What is configurable": a run is set by its arguments alone.
no_environment_knobs() {
  if grep -rnE 'env::(var|vars|var_os)\b' crates src examples tests --include='*.rs'; then
    fail "no program or test reads an environment variable"
  fi
}

BENCHMARK=(--release --locked --offline --manifest-path benchmark/Cargo.toml)

# The one tracing-cost number is the frozen benchmark's
# obs.trace_overhead_pct: untraced and traced repetitions of echo_small
# alternate inside one process. The result is the last line, compact JSON.
obs_overhead() {
  cargo build "${BENCHMARK[@]}"
  local run spans dropped pct
  run=$(benchmark/target/release/benchmark --workload echo_small --seed 7 --seconds 24 --trace 1 |
    tail -n 1)
  metric() { printf '%s' "$run" | sed -n "s/.*\"$1\":{\"value\":\([-+.eE0-9]*\).*/\1/p"; }
  spans=$(metric 'obs\.spans_per_req')
  dropped=$(metric 'obs\.spans_dropped')
  pct=$(metric 'obs\.trace_overhead_pct')
  echo "gates: obs-overhead spans_per_req=$spans spans_dropped=$dropped trace_overhead_pct=$pct"
  [ -n "$spans" ] && [ -n "$dropped" ] && [ -n "$pct" ] ||
    fail "the traced run printed no obs.* metrics: ${run:0:200}"
  case "$run" in
    '{"correct":true,'*) ;;
    *) fail "benchmark run is not correct" ;;
  esac
  is() { awk "BEGIN { exit !($1) }"; }
  is "$dropped == 0" || fail "$dropped spans dropped: the store evicted traces nobody took"
  is "int($spans + 0.5) == 20" || fail "$spans spans per echo request, want 20"
  # A tripwire above every echo_small run measured since the span store was
  # rewritten (15.7-51.4 % on a box whose clock is bimodal), not the
  # ROADMAP's 15 % aim.
  is "$pct <= 60.0" || fail "tracing overhead $pct% exceeds the 60% ceiling"
}

started=$SECONDS
case "${1:-}" in
  lint)
    cargo fmt --all --check
    cargo clippy --workspace --all-targets -- -D warnings
    # A link to a deleted or private item fails the build.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    cores_are_simulator_free
    one_front_door
    pool_is_single_threaded
    closures_live_in_their_node
    one_sampler
    no_environment_knobs
    ;;
  test)
    cargo build --workspace --release --locked
    cargo test --workspace --quiet
    ;;
  results)
    # `experiments all` is the one writer of every virtual-time file.
    cargo run --release -p bench --bin experiments -- all >/dev/null
    git diff --exit-code -- results/
    ;;
  benchmark-package)
    # benchmark/ is a frozen package of its own (own lock file, path
    # dependencies on crates/*): a crate API change that breaks it fails here.
    cargo build "${BENCHMARK[@]}"
    benchmark/smoke.sh
    ;;
  obs-overhead)
    obs_overhead
    ;;
  miri)
    cargo +nightly miri setup
    cargo +nightly miri test -p membuf
    cargo +nightly miri test -p simcore --lib -- event:: heap:: engine::
    ;;
  all)
    for name in lint test results benchmark-package obs-overhead; do
      scripts/gates.sh "$name"
    done
    ;;
  *)
    echo "usage: scripts/gates.sh lint|test|results|benchmark-package|obs-overhead|miri|all" >&2
    exit 2
    ;;
esac
echo "gates: $1 ok ($((SECONDS - started)) s)"
