#!/usr/bin/env python3
"""Compares a bench run's deterministic columns with the committed record.

    python3 tools/bench_check.py BENCH_sim_core.json run.json \
        --exact events,dl_delivered,dl_pdb_drops

BENCH_sim_core.json is a committed tlc-bench-v1 report; its "current"
rows are the record. run.json is the bench's own --json output. Rows
pair up by their "case". Every column named by --exact that either side
of a pair has must be present on both sides and equal, and both sides
must list the same cases. Every other column, the timings, is printed
next to the record for information only: shared runners are too noisy
to gate on them.
Exits 1 on any mismatch, 0 otherwise.
"""
import argparse
import json
import sys


def rows_by_case(rows):
    return {row["case"]: row for row in rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("committed")
    parser.add_argument("run")
    parser.add_argument("--exact", required=True,
                        help="comma-separated deterministic columns")
    args = parser.parse_args()

    with open(args.committed) as f:
        record = rows_by_case(json.load(f)["current"]["rows"])
    with open(args.run) as f:
        run = rows_by_case(json.load(f)["rows"])
    exact = [c for c in args.exact.split(",") if c]

    failures = []
    for case in sorted(set(record) ^ set(run)):
        side = "the run" if case in record else "the committed record"
        failures.append("%s: missing from %s" % (case, side))
    for case in [c for c in run if c in record]:
        want, got = record[case], run[case]
        for column in exact:
            if column not in want and column not in got:
                continue
            if want.get(column) != got.get(column):
                failures.append("%s.%s: committed %s, run %s" %
                                (case, column, want.get(column),
                                 got.get(column)))
        shown = ["%s %s -> %s" % (c, want.get(c), got.get(c))
                 for c in sorted(set(want) | set(got))
                 if c != "case" and c not in exact]
        print("%-20s %s" % (case, "; ".join(shown)))

    for failure in failures:
        print("MISMATCH " + failure)
    if failures:
        print("%d deterministic column(s) differ from %s; refresh the "
              "record if the change means to move them" %
              (len(failures), args.committed))
        return 1
    print("all deterministic columns match %s" % args.committed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
