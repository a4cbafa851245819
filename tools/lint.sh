#!/usr/bin/env bash
# Forbids `failwith` and `Obj.magic` in lib/ and bin/ outside the
# allowlist.  New code should report failures through the typed error
# channel (Eager_robust.Err) so callers can distinguish error kinds and
# the REPL can survive them; `Obj.magic` is never acceptable.
#
# Also forbids `Random.self_init` and the implicit global generator
# (`Random.int`, `Random.bool`, ...) everywhere in lib/, bin/ and
# bench/: all randomness must thread an explicit seeded
# `Random.State.t` (see Eager_workload.Gen) so every run — above all
# the fuzz harness — replays bit-for-bit from its seed.
set -u

allow=tools/lint_allowlist.txt
bad=0

# The durability layer can never be grandfathered: a failwith in the WAL
# or recovery path would turn a recoverable crash into data loss.
if grep -qE '^lib/durable/' "$allow"; then
  echo "lint: lib/durable must stay failwith-free; remove it from $allow" >&2
  exit 1
fi

# Neither can the fuzz harness: an untyped failure or a nondeterministic
# draw there invalidates the oracle's replayability guarantee.
if grep -qE '^lib/fuzz/' "$allow"; then
  echo "lint: lib/fuzz must stay failwith-free; remove it from $allow" >&2
  exit 1
fi

# Nor the server: an untyped failure in a session thread kills the whole
# process, not one statement — the opposite of graceful degradation.
if grep -qE '^lib/server/' "$allow"; then
  echo "lint: lib/server must stay failwith-free; remove it from $allow" >&2
  exit 1
fi

while IFS= read -r hit; do
  file=${hit%%:*}
  if ! grep -qxF "$file" "$allow"; then
    echo "lint: forbidden construct outside allowlist: $hit" >&2
    bad=1
  fi
done < <(grep -rn --include='*.ml' -E 'failwith|Obj\.magic' lib bin || true)

# The executor is a pull pipeline: whole-relation materialization
# (Heap.to_list, List.concat over operator output) is banned in
# lib/exec hot paths.  True pipeline breakers mark the offending line
# with a `breaker-ok` comment stating why; ref_eval.ml is exempt
# wholesale — it is the deliberately materializing reference oracle the
# pipeline is differentially tested against.
while IFS= read -r hit; do
  line=${hit#*:*:}
  case "$line" in
  *breaker-ok*) ;;
  *)
    echo "lint: whole-relation materialization in the pull pipeline: $hit" >&2
    echo "lint: stream through cursors/batches, or mark a true pipeline" >&2
    echo "lint: breaker with a 'breaker-ok' comment explaining why." >&2
    bad=1
    ;;
  esac
done < <(grep -rn --include='*.ml' \
  --exclude='ref_eval.ml' \
  -E 'Heap\.to_list|List\.concat' \
  lib/exec || true)

# A session thread must never block without a deadline: every socket
# read in lib/server goes through Wire.read_frame's select-with-budget
# loop.  A naked blocking read is banned unless the line carries a
# `timeout-ok` marker naming what bounds it.
while IFS= read -r hit; do
  line=${hit#*:*:}
  case "$line" in
  *timeout-ok*) ;;
  *)
    echo "lint: unbounded blocking read in lib/server: $hit" >&2
    echo "lint: route reads through Wire.read_frame (select + budget)," >&2
    echo "lint: or mark the line 'timeout-ok: <what bounds it>'." >&2
    bad=1
    ;;
  esac
done < <(grep -rn --include='*.ml' -E \
  'Unix\.read[^_a-zA-Z]|input_line|really_input|In_channel\.input' \
  lib/server || true)

# Every fault point named at a hook site (Fault.check/trip/hit/lag,
# ~fault:) must be registered in Fault.all_points: the seeded crash
# matrix, the fuzz harness and the chaos driver iterate that list, so an
# unregistered point never fires under them and its failure path
# silently loses coverage.
registered=$(sed -n '/^let all_points/,/^  \]/p' lib/robust/fault.ml |
  grep -oE '"[a-z_.]+"' | tr -d '"')
check_fault_sites() { # check_fault_sites <registered-list> ; reads hits on stdin
  local reg=$1 rc=0 hit point
  while IFS= read -r hit; do
    point=$(printf '%s' "$hit" | grep -oE '"[a-z_.]+"' | head -1 | tr -d '"')
    [ -n "$point" ] || continue
    if ! printf '%s\n' "$reg" | grep -qxF "$point"; then
      echo "lint: fault point \"$point\" is not in Fault.all_points: $hit" >&2
      echo "lint: register it there so the crash matrix exercises it." >&2
      rc=1
    fi
  done
  return "$rc"
}
fault_sites() { # fault_sites <dir>...
  grep -rn --include='*.ml' -E \
    'Fault\.(check|trip|hit|lag) "[a-z_.]+"|Fault\.lag [^"]* "[a-z_.]+"|~fault:"[a-z_.]+"' \
    "$@" | grep -v 'lib/robust/fault\.ml' || true
}
check_fault_sites "$registered" < <(fault_sites lib bin) || bad=1

# Self-test: the rule must actually catch an unregistered hook site —
# a regex that silently stops matching (a new Fault entry point, say)
# would otherwise rot into false confidence.
selftest=$(mktemp -d)
cat >"$selftest/bad.ml" <<'EOF'
let f () = Fault.trip "lint.selftest_unregistered"
let g () = Fault.hit "lint.selftest_hit"
let h () = Fault.lag ~ms:5. "lint.selftest_lag"
EOF
if check_fault_sites "$registered" < <(fault_sites "$selftest") 2>/dev/null; then
  echo "lint: SELF-TEST FAILED — an unregistered fault point slipped past" >&2
  echo "lint: the fault-registration rule (check the regex in fault_sites)." >&2
  bad=1
fi
rm -rf "$selftest"

# The two-sided Plans.e1/e2 constructors are the legacy N=2 planning
# surface: they hard-code one join with aggregation either fully above
# or fully below it, and E2 skips TestFD.  All plan construction in lib/
# and bin/ goes through the join-graph pipeline (Qgraph / Placement /
# Planner) so every query benefits from placement enumeration and the
# per-cut TestFD gate.  Sanctioned: lib/core (where the constructors
# live) and lib/opt/placement.ml (the bridge that lowers chosen
# placements onto them).  Any other use in lib/ or bin/ must carry a
# `legacy-plan-ok` marker stating why it deliberately bypasses the
# planner.
while IFS= read -r hit; do
  line=${hit#*:*:}
  case "$line" in
  *legacy-plan-ok*) ;;
  *)
    echo "lint: legacy two-sided plan construction outside lib/core: $hit" >&2
    echo "lint: plan through Planner.decide / Placement (join-graph" >&2
    echo "lint: pipeline), or mark the line 'legacy-plan-ok: <why>'." >&2
    bad=1
    ;;
  esac
done < <(grep -rn --include='*.ml' -E 'Plans\.(e1|e2)' lib bin |
  grep -vE '^lib/(core|opt/placement\.ml)' || true)

# Raw page IO is the buffer pool's monopoly: Pager.read/write/alloc
# outside lib/storage/buffer_pool.ml bypasses the frame cache, the
# pin-count protocol and the pool's hit/miss/eviction telemetry, so a
# query could do unbounded IO that no budget sees.  Everything else
# (heaps, executor spill, checkpoints) goes through Buffer_pool's
# with_page/append_page/read_page.  A deliberate bypass must carry a
# `pager-ok` marker stating why.
while IFS= read -r hit; do
  line=${hit#*:*:}
  case "$line" in
  *pager-ok* | *'(*'*) ;;
  *)
    echo "lint: raw Pager IO outside the buffer pool: $hit" >&2
    echo "lint: route page access through Buffer_pool (with_page /" >&2
    echo "lint: append_page / read_page), or mark the line" >&2
    echo "lint: 'pager-ok: <why the pool must be bypassed>'." >&2
    bad=1
    ;;
  esac
done < <(grep -rn --include='*.ml' -E 'Pager\.(read|write|alloc)[^_a-zA-Z]' \
  lib bin | grep -v 'lib/storage/buffer_pool\.ml' || true)

# Statistics are collected in one place: Database.stats, which carries
# them across snapshot versions and refreshes them only on drift,
# compaction or drop.  A direct Stats.collect anywhere else brings back
# a full two-pass table scan per statement.  Tests may still call it.
while IFS= read -r hit; do
  echo "lint: Stats.collect outside lib/storage/database.ml: $hit" >&2
  echo "lint: read statistics through Database.stats." >&2
  bad=1
done < <(grep -rn --include='*.ml' -E 'Stats\.collect([^_a-zA-Z]|$)' \
  lib bin bench | grep -v '^lib/storage/database\.ml:' || true)

# A write costs what it changes: no whole-table copy in the database's
# write path.  Heap.to_list and Heap.replace_all in
# lib/storage/database.ml are O(table), so each use must carry a
# `table-scan-ok` marker on the same line naming why the statement needs
# the whole table (DELETE and UPDATE validate and rewrite it wholesale;
# INSERT rolls back by truncation and must never copy).
while IFS= read -r hit; do
  case "$hit" in
  *table-scan-ok*) ;;
  *)
    echo "lint: whole-table copy in lib/storage/database.ml: $hit" >&2
    echo "lint: keep writes O(change) (Heap.truncate, incremental indexes)," >&2
    echo "lint: or mark the line 'table-scan-ok: <why>'." >&2
    bad=1
    ;;
  esac
done < <(grep -n -E 'Heap\.(to_list|replace_all)([^_a-zA-Z]|$)' \
  lib/storage/database.ml || true)

# no allowlist for nondeterminism: Random.self_init and the global
# generator are banned outright (Random.State through Gen is the only
# sanctioned source of randomness)
while IFS= read -r hit; do
  echo "lint: nondeterministic randomness (use Eager_workload.Gen): $hit" >&2
  bad=1
done < <(grep -rn --include='*.ml' -E \
  'Random\.self_init|Random\.(int|bool|float|bits)[^_a-zA-Z]' \
  lib bin bench || true)

if [ "$bad" -ne 0 ]; then
  echo "lint: use Eager_robust.Err (errf/failf/protect) instead," >&2
  echo "lint: or append the file to $allow with a justification." >&2
  exit 1
fi
echo "lint: OK"
