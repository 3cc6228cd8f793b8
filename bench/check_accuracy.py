#!/usr/bin/env python3
"""Service-accuracy gate: compares a fresh ledger written by
bench/exp_service_accuracy against the committed BENCH_accuracy.json.

  python3 bench/check_accuracy.py BENCH_accuracy.json FRESH.json

Each committed row's pooled mean and p90 error may rise by at most the
row's bound, which was set from the seed spread when the ledger was
written. A value that falls by more than its bound passes with a note to
regenerate the ledger, so that the better figure becomes the new bar.

Exit status: 0 pass, 1 a row got worse past its bound, 2 the ledgers are
not comparable (a committed row is missing from the fresh ledger, or its
user count or particle count changed): regenerate the committed ledger.
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        committed = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)
    fresh_rows = {row["row"]: row for row in fresh["rows"]}

    print(f"accuracy gate: committed seeds {committed['seeds']}, "
          f"fresh seeds {fresh['seeds']}")
    failures = []
    for base in committed["rows"]:
        name = base["row"]
        row = fresh_rows.get(name)
        if row is None:
            print(f"INCOMPARABLE: row {name} missing from the fresh ledger")
            return 2
        for key in ("users", "num_predictions"):
            if row[key] != base[key]:
                print(f"INCOMPARABLE: {name} {key} {base[key]} -> {row[key]};"
                      " regenerate BENCH_accuracy.json")
                return 2
        for stat in ("mean", "p90"):
            was, now = base[stat], row[stat]
            bound = base[f"{stat}_bound"]
            if now > was + bound:
                status = "WORSE"
                failures.append(f"{name}.{stat}")
            elif now < was - bound:
                status = "better"
            else:
                status = "ok"
            print(f"  {status:>6}  {name}.{stat}: {was:.4f} -> {now:.4f} "
                  f"({now - was:+.4f}, bound {bound:.4f})")
            if status == "better":
                print(f"          {name}.{stat} improved past its bound; "
                      "regenerate BENCH_accuracy.json to keep the new bar")

    if failures:
        print(f"accuracy gate FAILED: {', '.join(failures)} got worse past "
              "the bound")
        return 1
    print("accuracy gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
