#!/usr/bin/env bash
# Lists the fluxfp:: functions that the src/ libraries define and that no
# shipped binary keeps, and checks them against ci/unreached-expected.txt.
#
#   ci/unreached_symbols.sh [BUILD_DIR]        (default: build-unreached)
#
# Every example, bench harness and tool, and perfbench, is built with tests
# off at -O0 with one section per function and linked with --gc-sections, so
# a binary keeps exactly the functions it can reach. A function that a src/
# archive defines (nm type T or t) and that no binary keeps is reached by
# tests or by nothing. Symbols are compared mangled, so an unreached overload
# shows even when its siblings are kept; names print without parameter lists.
#
# ci/unreached-expected.txt holds one name per line, then " -- " and the
# reason it stays; '#' starts a comment. Exit status: 0 when every unreached
# name is listed with a reason, 1 when one is missing or a line has no reason.
# A listed name that some binary now keeps only warns: it has gained a
# caller, so delete its line.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mkdir -p "${1:-$root/build-unreached}" && cd "${1:-$root/build-unreached}" && pwd)
expected=$root/ci/unreached-expected.txt
jobs=$(nproc)
flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

echo "unreached: building the shipped binaries into $out" >&2
cmake -S "$root" -B "$out/tree" -DFLUXFP_BUILD_TESTS=OFF "${flags[@]}" >/dev/null
cmake --build "$out/tree" -j "$jobs" >/dev/null
cmake -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}" >/dev/null
cmake --build "$out/perfbench" --target perfbench -j "$jobs" >/dev/null

mapfile -t binaries < <(find "$out/tree/examples" "$out/tree/bench" \
  "$out/tree/tools" -path '*/CMakeFiles' -prune -o -type f -executable -print \
  | sort)
binaries+=("$out/perfbench/perfbench")
echo "unreached: ${#binaries[@]} binaries" >&2

# Mangled names of the text symbols whose type is in $1.
text_symbols() {
  local types=$1
  shift
  nm --defined-only "$@" | awk -v t="$types" 'NF == 3 && index(t, $2) { print $3 }' \
    | sort -u
}

# A lambda prints as its enclosing function: everything from the first '('
# that opens a parameter list goes.
comm -23 <(text_symbols Tt "$out"/tree/src/libfluxfp_*.a) \
         <(text_symbols TtWw "${binaries[@]}") \
  | c++filt -p \
  | sed -e 's/\[abi:[^]]*\]//g' \
        -e 's/(anonymous namespace)/@anon@/g' -e 's/operator()/@call@/g' \
        -e 's/(.*//' \
        -e 's/@anon@/(anonymous namespace)/g' -e 's/@call@/operator()/g' \
  | grep '^fluxfp::' | sort -u > "$out/unreached.txt"

grep -v '^[[:space:]]*\(#\|$\)' "$expected" > "$out/expected-lines.txt" || true
status=0
if grep -v ' -- ' "$out/expected-lines.txt"; then
  echo "::error title=Unreached list::the lines above give no ' -- reason'"
  status=1
fi
sed 's/ -- .*//' "$out/expected-lines.txt" | sort -u > "$out/expected.txt"

cat "$out/unreached.txt"
echo "unreached: $(wc -l < "$out/unreached.txt") functions no shipped binary keeps" >&2
while read -r name; do
  echo "::error title=Unreached function::$name is defined in src/ but no shipped binary keeps it; give it a caller, delete it, or list it with its reason in ci/unreached-expected.txt"
  status=1
done < <(comm -23 "$out/unreached.txt" "$out/expected.txt")
while read -r name; do
  echo "::warning title=Unreached list stale::$name has gained a caller; delete its line from ci/unreached-expected.txt"
done < <(comm -13 "$out/unreached.txt" "$out/expected.txt")
exit "$status"
