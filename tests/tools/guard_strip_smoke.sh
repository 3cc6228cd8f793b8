#!/usr/bin/env bash
# Guard-strip smoke: deleting any single FLUXFP_GUARDED_BY from the
# event-queue or server headers must trip the guarded-member lint rule.
# This is the compiler-independent half of the acceptance gate (the
# Clang -Werror=thread-safety smoke is the other half): annotations only
# protect the code while removing one is loud.
#
# Usage: guard_strip_smoke.sh <fluxfp_lint binary> <repo root>
set -u

LINT="${1:?usage: guard_strip_smoke.sh <lint-bin> <repo-root>}"
ROOT="${2:?usage: guard_strip_smoke.sh <lint-bin> <repo-root>}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cp -r "$ROOT/src" "$TMP/src"

# Baseline: the pristine tree must be clean, or every strip "fails" for
# free and the smoke proves nothing.
if ! "$LINT" --root "$TMP" --rule guarded-member src \
    > "$TMP/baseline.out" 2>&1; then
  echo "guard_strip_smoke: pristine tree is not clean:" >&2
  cat "$TMP/baseline.out" >&2
  exit 1
fi

total=0
uncaught=0
for f in src/stream/event_queue.hpp src/netio/server.hpp; do
  count=$(grep -o 'FLUXFP_GUARDED_BY([^)]*)' "$ROOT/$f" | wc -l)
  if [ "$count" -eq 0 ]; then
    echo "guard_strip_smoke: no FLUXFP_GUARDED_BY left in $f" >&2
    exit 1
  fi
  for k in $(seq 1 "$count"); do
    total=$((total + 1))
    # Strip occurrence k (and only it), preserving every line number.
    awk -v k="$k" '
      { line = $0; outline = ""; c = seen
        while (match(line, /FLUXFP_GUARDED_BY\([^)]*\)/)) {
          c++
          if (c == k) {
            outline = outline substr(line, 1, RSTART - 1)
            line = substr(line, RSTART + RLENGTH)
          } else {
            outline = outline substr(line, 1, RSTART + RLENGTH - 1)
            line = substr(line, RSTART + RLENGTH)
          }
        }
        seen = c
        print outline line
      }' "$ROOT/$f" > "$TMP/$f"
    out=$("$LINT" --root "$TMP" --rule guarded-member src 2>&1)
    rc=$?
    if [ "$rc" -eq 0 ] || ! printf '%s' "$out" | grep -q guarded-member; then
      echo "guard_strip_smoke: stripping occurrence $k from $f was NOT" \
           "caught (rc=$rc)" >&2
      printf '%s\n' "$out" | head -5 >&2
      uncaught=$((uncaught + 1))
    fi
    cp "$ROOT/$f" "$TMP/$f"
  done
done

echo "guard_strip_smoke: $total guard strips tested, $uncaught uncaught"
[ "$uncaught" -eq 0 ]
