#!/usr/bin/env bash
# Diff the output digest (tools/hgp_digest.cpp) of two git refs.
#
#   tools/digest_diff.sh <base-ref> [<head-ref>]    # head defaults to HEAD
#
# Each ref is checked out in a temporary git worktree and its library built
# in Release (through ccache when it is installed). The digest source is
# always this checkout's tools/hgp_digest.cpp, compiled against each side's
# library, so a base that predates the tool is still comparable. Prints
# `diff -u base head` and exits 0 when the digests are byte-identical, 1
# when they differ, 2 on a usage or build error. No golden file is
# committed: both sides run on the same machine, so libm differences
# between hosts never show up as a diff.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 <base-ref> [<head-ref>]" >&2
  exit 2
fi
base_ref=$1
head_ref=${2:-HEAD}
repo=$(git rev-parse --show-toplevel)
digest_src="$repo/tools/hgp_digest.cpp"
work=$(mktemp -d "${TMPDIR:-/tmp}/hgp-digest.XXXXXX")
jobs=${DIGEST_JOBS:-$(nproc)}

launcher=()
if command -v ccache > /dev/null; then
  launcher=(ccache)
  # Relative paths under the work directory let both sides share cache hits.
  export CCACHE_BASEDIR="$work"
fi

cleanup() {
  for side in base head; do
    git -C "$repo" worktree remove --force "$work/$side" > /dev/null 2>&1 || true
  done
  rm -rf "$work"
}
trap cleanup EXIT

build_side() {  # build_side <name> <ref>: leaves $work/<name>.digest
  local name=$1 ref=$2 tree="$work/$1"
  git -C "$repo" worktree add --detach "$tree" "$ref" > /dev/null 2>&1 ||
    { echo "cannot check out '$ref'" >&2; exit 2; }
  cmake -S "$tree" -B "$tree/build" -DCMAKE_BUILD_TYPE=Release \
    ${launcher:+-DCMAKE_CXX_COMPILER_LAUNCHER=ccache} > "$work/$name.build.log" 2>&1 &&
    cmake --build "$tree/build" --target hgp -j "$jobs" >> "$work/$name.build.log" 2>&1 &&
    "${launcher[@]}" "${CXX:-c++}" -std=c++17 -O2 -ffp-contract=off -I "$tree/src" \
      "$digest_src" "$tree/build/libhgp.a" -pthread -o "$tree/build/hgp_digest" \
      >> "$work/$name.build.log" 2>&1 ||
    { echo "build of '$ref' failed:" >&2; tail -n 30 "$work/$name.build.log" >&2; exit 2; }
  "$tree/build/hgp_digest" > "$work/$name.digest"
}

build_side base "$base_ref"
build_side head "$head_ref"
echo "digest: $(wc -l < "$work/head.digest") lines; base $(git -C "$repo" rev-parse --short "$base_ref"), head $(git -C "$repo" rev-parse --short "$head_ref")"
if diff -u --label "base ($base_ref)" --label "head ($head_ref)" \
    "$work/base.digest" "$work/head.digest"; then
  echo "digest: identical"
  exit 0
fi
exit 1
