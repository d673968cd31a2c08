"""One measured pass of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line.  A
fresh process per pass keeps the program's in-process caches (``lru_cache``
on hash families, run caches) cold, as they are for a command-line user.

    python3 bench/worker.py --workload qkd-exact --seed 1 --t0 <monotonic> \
        [--mode pass|trace|setup] [--tiny]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports and input building.
"""

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_qkdsec():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import qkdsec
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import qkdsec from {SRC}: {exc}")
    where = os.path.realpath(qkdsec.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"bench: qkdsec resolved to {where}, not under {SRC}")
    return qkdsec


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version") if k in blas},
    }


# --- machine speed ------------------------------------------------------------------
#
# On a shared host the speed of this process swings by up to 1.7x within
# seconds, whatever the program does, and with it every time a pass reports.
# A fixed calibration kernel, timed every PROBE_INTERVAL_S while the cases
# run, measures that speed next to each case; a case's time is scaled by
# PROBE_REF_S over the kernel's median time around it, which gives the time the
# case takes at a fixed reference speed.  The kernel is the benchmark's own
# code, so a change to qkdsec cannot move it.  Its two halves are the two
# kinds of work the workloads do: plain interpreter work, and the
# interpreter driving numpy on small arrays.  See README.md for how well it
# tracks them.

PROBE_INTERVAL_S = 0.2
PROBE_REF_S = 0.003         # about the kernel's median time, 2-vCPU Xeon VM
_PROBE_MATRIX = np.exp(1j * np.add.outer(np.arange(16.0), np.arange(16.0)))


def probe_kernel() -> int:
    table: dict = {}
    acc = 0j
    for i in range(3000):
        z = complex(i % 13, i % 7)
        acc += z * z.conjugate() / (1.0 + abs(z))
        table[i % 97] = table.get(i % 97, 0) + i
    c, s = 0.8, 0.6j
    for _ in range(3):
        a = _PROBE_MATRIX.copy()
        for p in range(15):
            cp, cq = a[:, p].copy(), a[:, p + 1].copy()
            a[:, p] = c * cp - np.conj(s) * cq
            a[:, p + 1] = s * cp + c * cq
            rp, rq = a[p, :].copy(), a[p + 1, :].copy()
            a[p, :] = c * rp - s * rq
            a[p + 1, :] = np.conj(s) * rp + c * rq
    return len(table)


def probe_once() -> tuple[float, float]:
    start = time.perf_counter()
    probe_kernel()
    return start, time.perf_counter() - start


class SpeedProbe:
    """Runs the kernel from a SIGALRM handler every PROBE_INTERVAL_S of wall
    time and keeps ``(start, duration)`` of each run."""

    def __init__(self):
        self.samples: list = []

    def _tick(self, signum, frame):
        self.samples.append(probe_once())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def within(self, lo: float, hi: float) -> list:
        return [d for t, d in self.samples if lo <= t < hi]


def speed_scaled(raw: list, spans: list, probe: SpeedProbe) -> list:
    """Each case's time at the reference speed: its own time over the median
    kernel time of the probes that ran during it or next to it."""
    every = [d for _, d in probe.samples]
    scaled = []
    for t, (lo, hi) in zip(raw, spans):
        near = probe.within(lo - 2 * PROBE_INTERVAL_S, hi + 2 * PROBE_INTERVAL_S) or every
        scaled.append(t * PROBE_REF_S / statistics.median(near))
    return scaled


def run_cases(cases, tracer=None) -> dict:
    """Times every case.  A traced pass reports raw times only; an untraced
    pass also reports times at the reference speed (``wall_s``,
    ``max_case_s``) next to the raw ones."""
    raw, spans, values, failures = [], [], {}, {}
    probe = SpeedProbe()
    if tracer is not None:
        tracer.install()
    try:
        with probe if tracer is None else contextlib.nullcontext():
            for case in cases:
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(sys.stderr):
                        out = case.call()
                    exc = None
                except Exception as error:  # a raising case is a failed case
                    exc = error
                end = time.perf_counter()
                raw.append(end - start - sum(probe.within(start, end)))
                spans.append((start, end))
                if exc is not None:
                    failures[case.name] = [f"raised {type(exc).__name__}: {exc}"]
                    continue
                case_values, case_failures = case.check(out)
                values[case.name] = case_values
                if case_failures:
                    failures[case.name] = case_failures
    finally:
        if tracer is not None:
            tracer.restore()
    result = {"raw_wall_s": sum(raw), "raw_max_case_s": max(raw),
              "cases": [c.name for c in cases], "values": values, "failures": failures}
    if tracer is None:
        if not probe.samples:  # a pass shorter than one probe interval
            probe.samples.append(probe_once())
        scaled = speed_scaled(raw, spans, probe)
        result.update(wall_s=sum(scaled), max_case_s=max(scaled),
                      probe_s=statistics.median(d for _, d in probe.samples))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("pass", "trace", "setup"), default="pass")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    qkdsec = _import_qkdsec()
    import tracer as tracing
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as workdir:
        cases = workloads.build(args.workload, args.seed, workdir, args.tiny)
        raw_setup_s = time.monotonic() - args.t0
        probe_once()  # warm-up
        speed = statistics.median(probe_once()[1] for _ in range(9))
        result = {"raw_setup_s": raw_setup_s,
                  "setup_s": raw_setup_s * PROBE_REF_S / speed,
                  "metric_tol": qkdsec.tolerances.METRIC_TOL}
        if args.mode != "setup":
            tracer = tracing.Tracer() if args.mode == "trace" else None
            result.update(run_cases(cases, tracer))
            if tracer is not None:
                result["layers"] = tracer.report()
                result["absent"] = tracer.absent
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
