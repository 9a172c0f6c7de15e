#!/usr/bin/env bash
# Same-outputs check: build <git-ref> and the working tree, run every
# deterministic bench with --csv in both, and compare the outputs byte for
# byte. A change that claims "same outputs" (a refactor, a deletion, a
# faster path) must pass it against its parent commit.
#
#   tools/same_outputs.sh HEAD          # working tree vs the last commit
#   tools/same_outputs.sh origin/main   # working tree vs the base branch
#
# The timing benches (bench_scale, bench_served, bench_engine_microbench)
# are excluded: their numbers differ from run to run by nature. A bench
# the ref does not have is reported and skipped.
#
# The ref builds in a temporary `git worktree`; both builds live in one
# temporary directory that is removed on exit. Exits 0 when every bench
# matches, 1 naming the first bench that differs or fails, 2 on a usage
# error. Jobs default to the machine's core count; override with JOBS=N.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: tools/same_outputs.sh <git-ref>" >&2
  exit 2
fi
REF="$1"
if ! git rev-parse --verify --quiet "$REF^{commit}" >/dev/null; then
  echo "tools/same_outputs.sh: unknown git ref '$REF'" >&2
  exit 2
fi
JOBS="${JOBS:-$(nproc)}"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/same_outputs.XXXXXX")"
cleanup() {
  git worktree remove --force "$WORK/ref" >/dev/null 2>&1 || true
  rm -rf "$WORK"
  git worktree prune
}
trap cleanup EXIT
git worktree add --detach --quiet "$WORK/ref" "$REF"

LAUNCHER=""
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER="-DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
fi

# The deterministic benches of a source tree: its lmo_bench() targets,
# minus the timing benches (bench_engine_microbench is not an lmo_bench).
benches_of() {
  sed -n 's/^lmo_bench(\(bench_[a-z0-9_]*\))$/\1/p' "$1/bench/CMakeLists.txt" |
    grep -vxE 'bench_scale|bench_served'
}

# build <source dir> <build dir> <targets...>
build() {
  local src="$1" dir="$2"
  shift 2
  echo "== building $src =="
  cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    ${LAUNCHER:+$LAUNCHER} >/dev/null
  cmake --build "$dir" -j "$JOBS" --target "$@" >/dev/null
}

mapfile -t BENCHES < <(benches_of .)
mapfile -t REF_BENCHES < <(benches_of "$WORK/ref")
build "$WORK/ref" "$WORK/build-ref" "${REF_BENCHES[@]}"
build "$PWD" "$WORK/build-new" "${BENCHES[@]}"

for b in "${BENCHES[@]}"; do
  if ! printf '%s\n' "${REF_BENCHES[@]}" | grep -qxF "$b"; then
    echo "skip  $b (not in $REF)"
    continue
  fi
  for side in ref new; do
    if ! "$WORK/build-$side/bench/$b" --csv >"$WORK/$b.$side.csv" \
        2>"$WORK/$b.$side.err"; then
      echo "FAIL  $b: the $side build exited non-zero" >&2
      cat "$WORK/$b.$side.err" >&2
      exit 1
    fi
  done
  if ! cmp -s "$WORK/$b.ref.csv" "$WORK/$b.new.csv"; then
    echo "DIFF  $b: --csv output differs from $REF" >&2
    diff "$WORK/$b.ref.csv" "$WORK/$b.new.csv" | head -20 >&2 || true
    exit 1
  fi
  echo "same  $b"
done
echo "every deterministic bench --csv output is byte-identical to $REF"
