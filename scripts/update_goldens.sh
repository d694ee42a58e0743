#!/usr/bin/env bash
# Regenerate the committed Verilog goldens (tests/goldens/*.v) from the
# current emitter. Review the diff before committing: the goldens are the
# emission contract, and test_flow_golden compares bytes.
#
# Usage: scripts/update_goldens.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

cmake --build "$build" --target asicpp-flow -j >/dev/null

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for design in fig6 quickstart dect hcor; do
  "$build/tools/asicpp-flow" emit --example "$design" -o "$tmp" >/dev/null
  cp "$tmp/$design/$design.v" "$repo/tests/goldens/$design.v"
  echo "updated tests/goldens/$design.v ($(wc -l < "$repo/tests/goldens/$design.v") lines)"
done
