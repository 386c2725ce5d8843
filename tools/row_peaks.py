"""Time and memory of each `verify` row, in one process.

    python3 tools/row_peaks.py [--fast] [--seed N]

Runs `certificates.rows` in process, as `tits27 verify` does, and prints
one line per row: the milliseconds since the previous row was yielded, the
rise of the process's peak resident set size (`ru_maxrss`) over that time
in KiB, and the minor page faults taken over that time.  A row's figures
include all the work done for it, so the orbit rows carry the BFS and the
order rows the stabilizer chain.  The last line gives the totals and the
final peak.
"""

import argparse
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from tits27 import certificates  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true", help="the 30 rows of verify --fast")
    parser.add_argument("--seed", type=int, default=12345, help="first basis round-trip seed")
    args = parser.parse_args(argv)

    def usage():
        return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)

    print(f"{'ms':>8} {'+rss KiB':>9} {'minflt':>7}  row")
    first = last = usage()
    for name, ok in certificates.rows(fast=args.fast, seed=args.seed):
        now = usage()
        print(f"{1e3 * (now[0] - last[0]):8.2f} {now[1].ru_maxrss - last[1].ru_maxrss:9} "
              f"{now[1].ru_minflt - last[1].ru_minflt:7}  {'PASS' if ok else 'FAIL'} {name}")
        last = now
    print(f"{1e3 * (last[0] - first[0]):8.2f} {last[1].ru_maxrss - first[1].ru_maxrss:9} "
          f"{last[1].ru_minflt - first[1].ru_minflt:7}  total; peak RSS "
          f"{last[1].ru_maxrss / 1024:.1f} MiB")


if __name__ == "__main__":
    main()
