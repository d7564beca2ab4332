#!/usr/bin/env bash
# The repository's structural gates, one subcommand per kind. CI's `lint`
# job and .claude/skills/verify/SKILL.md both call `scripts/gates.sh lint`;
# run it from anywhere, it works from the repository root.
#
#   scripts/gates.sh lint    greps that hold a design rule in place
#
# Each check names the DESIGN.md section that states its rule and exits
# non-zero with the offending lines when the rule is broken.
set -euo pipefail
cd "$(dirname "$0")/.."

fail() {
  echo "gates: $*" >&2
  exit 1
}

# A source file without its `#[cfg(test)]` tail.
non_test() { sed '/#\[cfg(test)\]/,$d' "$1"; }

# DESIGN.md §4 "The DNE: a simulator-free core behind a thin driver".
dne_core_is_simulator_free() {
  if non_test crates/dne/src/core.rs |
    grep -nE '\bSim\b|Rc<RefCell|schedule_at|schedule_after|\.cancel\('; then
    fail "crates/dne/src/core.rs must not see the simulator"
  fi
  local posts=0 f
  for f in crates/dne/src/*.rs; do
    posts=$((posts + $(non_test "$f" | grep -c 'post_send(' || true)))
  done
  [ "$posts" -eq 1 ] ||
    fail "post_send( appears $posts times outside tests in crates/dne/src (want 1: the driver)"
}

# DESIGN.md §4 "Front door and load driver". The frozen benchmark package
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
}

# DESIGN.md §2 "A closure lives in its slab node", §4 "A buffer hop takes
# no lock". `claim` is redeem's compare-exchange.
hops_take_no_lock() {
  body() { awk -v f="fn $2[(<]" '$0 ~ f {on=1} on {print} on && /^    }$/ {on=0}' "$1"; }
  local f
  for f in into_desc redeem claim peek_payload_into; do
    [ -n "$(body crates/membuf/src/pool.rs "$f")" ] ||
      fail "membuf::pool has no fn $f to check"
    if body crates/membuf/src/pool.rs "$f" | grep -nE '\.lock\(\)|free_list\(\)'; then
      fail "membuf::pool::$f must not take the free-list lock"
    fi
  done
  for f in crates/simcore/src/*.rs; do
    if non_test "$f" | grep -n 'EventFn::new('; then
      fail "$f: no by-value EventFn; closures are written into their node (EventFn::arm)"
    fi
  done
}

# DESIGN.md §5 "One door per number": exactly one non-test function calls
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

case "${1:-}" in
  lint)
    dne_core_is_simulator_free
    one_front_door
    hops_take_no_lock
    one_sampler
    echo "gates: lint ok"
    ;;
  *)
    echo "usage: scripts/gates.sh lint" >&2
    exit 2
    ;;
esac
