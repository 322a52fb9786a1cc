#!/usr/bin/env bash
# clang-tidy over the checked scope (src/core + src/verify + src/obs +
# src/support, profile in .clang-tidy), restricted to the files changed against
# origin/main when a merge base exists — a PR lints what it touched; a push
# to main (or a checkout without origin) lints the whole scope.
#
# Needs a compile database:
#   cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "clang_tidy_changed.sh: $BUILD_DIR/compile_commands.json not found —" >&2
  echo "configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON first" >&2
  exit 2
fi

scope=(src/core/*.cc src/verify/*.cc src/obs/*.cc src/support/*.cc)
files=()
base=$(git merge-base HEAD origin/main 2>/dev/null || true)
if [[ -n "$base" && "$base" != "$(git rev-parse HEAD)" ]]; then
  while IFS= read -r f; do
    [[ -f "$f" ]] && files+=("$f")
  done < <(git diff --name-only "$base" HEAD -- 'src/core/*.cc' 'src/verify/*.cc' 'src/obs/*.cc' \
    'src/support/*.cc')
  if [[ ${#files[@]} -eq 0 ]]; then
    echo "clang-tidy: no files in the checked scope changed since $base"
    exit 0
  fi
else
  files=("${scope[@]}")
fi

echo "clang-tidy (${#files[@]} files): ${files[*]}"
clang-tidy -p "$BUILD_DIR" --quiet "${files[@]}"
