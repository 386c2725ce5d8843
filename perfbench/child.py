"""One repetition of a tits27 benchmark workload, in a fresh process.

    python3 perfbench/child.py MODE TRACE_FILE CLI_ARG...

The child imports `tits27.cli` from the checkout's `src/` first, between two
runs of the speed probe, notes the CLOCK_MONOTONIC time at which the import
finished (the parent subtracts its spawn time to get the set-up time), then
calls `tits27.cli.run(CLI_ARG...)`
once with stdout captured.  MODE is one of

    setup   import only, run nothing
    plain   untraced run, timed around `cli.run`, with the speed probe run
            before, after and PROBE_HZ times a second during it
    trace   run with the span wrappers of `layers.Tracer`, then write the
            spans to TRACE_FILE and time the scalar microbenchmark
    count   run with the call counters of `layers.Counter`

The last line of stdout is a JSON report: import time, the mean probe time
around the import, exit code, wall time, captured output, peak RSS, and the
mode's extra data (for `plain`, the mean probe time during the run).
"""

import gc
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Speed probes per second of an untraced run.
PROBE_HZ = 10
_PROBE_POLY = (3, -1, 4, 1, -5, 9, 2, -6)


def probe(samples):
    """Time a fixed kernel once and append its seconds to `samples`.

    The kernel multiplies small integer polynomials through lists and tuples,
    as the Q(zeta20) arithmetic of tits27 does, but uses nothing from tits27,
    so it measures how fast the host runs this process at the moment and no
    change to the program can move it.  The collector is paused so that the
    kernel's allocations never start a collection of the program's objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    a = _PROBE_POLY
    for _ in range(60):
        c = [0] * 15
        for p, x in enumerate(a):
            if x:
                for q, y in enumerate(_PROBE_POLY):
                    if y:
                        c[p + q] += x * y
        a = tuple(v % 19 - 9 for v in c[:8])
    samples.append(time.perf_counter() - start)
    if enabled:
        gc.enable()


IMPORT_PROBES = []
probe(IMPORT_PROBES)

import tits27.cli  # noqa: E402  (the import is what set-up time measures)

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)
probe(IMPORT_PROBES)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

import layers  # noqa: E402

def main(argv):
    mode, trace_file, cli_argv = argv[0], argv[1], argv[2:]
    report = {"imported": IMPORTED, "module": tits27.cli.__file__,
              "probe_setup": statistics.fmean(IMPORT_PROBES)}
    if mode == "setup":
        print(json.dumps(report))
        return 0
    tracer = counter = None
    if mode == "trace":
        tracer = layers.Tracer()
        tracer.install()
    elif mode == "count":
        counter = layers.Counter()
        counter.install()
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")

    probes = []
    if mode == "plain":
        probe(probes)
        signal.signal(signal.SIGALRM, lambda signum, frame: probe(probes))
        signal.setitimer(signal.ITIMER_REAL, 1 / PROBE_HZ, 1 / PROBE_HZ)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            rc = tits27.cli.run(cli_argv)
            wall = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if probes:
        probe(probes)
        report["probe"] = statistics.fmean(probes)
    report.update(rc=rc, wall=wall, out=buf.getvalue(),
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        tracer.uninstall()
        with open(trace_file, "w") as f:
            json.dump({"spans": tracer.spans, "facts": tracer.facts,
                       "absent": sorted(tracer.absent), "wall": wall}, f)
        try:
            report["micro"] = layers.microbench()
        except (AttributeError, IndexError, StopIteration, TypeError):
            report["micro"] = {}  # the scalar API changed shape: the metrics read null
    if counter is not None:
        report.update(counts=counter.counts, absent=sorted(counter.absent))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
