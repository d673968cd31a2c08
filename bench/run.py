"""Benchmark of exact evaluation in qkdsec; see bench/README.md.

    python3 bench/run.py --workload qkd-exact --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --selftest

Each measured pass runs in a fresh worker process (``worker.py``), one at a
time, with BLAS pinned to one thread.  Passes repeat until the next one would
end past ``--seconds`` (at least two run; one round when tracing); every
reported time is the median over passes, of times scaled to a fixed machine
speed (``worker.py``).  Every computed value is checked: by the case's own
bounds, against ``reference.json`` where it holds the seed, and across the
passes of the run.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1 if
any case failed, and 2 if the benchmark could not run at all.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.json")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 7       # setup_s is the median of this many fresh starts
MIN_PASSES = 2          # untraced: a single pass made max_case_s too noisy
RUN_LIMIT_S = 170.0     # a run must finish within 180 s
BLAS_THREADS = "1"      # one thread: steadier than two on a shared 2-core box


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    # import qkdsec only from this checkout, and with cached bytecode, as an
    # installed package is imported
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float, tiny: bool = False) -> dict:
    """Run one worker to completion and return its parsed result."""
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--mode", mode] + (["--tiny"] if tiny else [])
    t0 = time.monotonic()
    proc = subprocess.Popen(argv + ["--t0", repr(t0)], cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} worker passed the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["process_s"] = time.monotonic() - t0
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[list, list]:
    """Run passes (alternating untraced and traced ones when tracing) and
    fresh set-up starts; returns ``(passes, starts)``, where ``starts`` holds
    every worker result that measured a set-up."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    modes = ("pass", "trace") if trace else ("pass",)
    min_rounds = 1 if trace else MIN_PASSES
    passes: list = []
    while True:
        for mode in modes:
            passes.append(spawn(workload, seed, mode, deadline, tiny))
        elapsed = time.monotonic() - start
        round_s = sum(p["process_s"] for p in passes[-len(modes):])
        if len(passes) >= min_rounds * len(modes) and elapsed + round_s > seconds:
            break
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", deadline, tiny))
    return passes, setups


# --- correctness --------------------------------------------------------------------

def load_reference(seed: int, workload: str):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh).get(str(seed), {}).get(workload)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {REFERENCE}: {exc}")


def compare(values: dict, expected: dict, tol: float) -> dict:
    """Per-case list of values that differ from ``expected`` by more than tol."""
    bad: dict = {}
    for case in sorted(set(values) | set(expected)):
        got, want = values.get(case, {}), expected.get(case, {})
        for name in sorted(set(got) | set(want)):
            if name not in got or name not in want:
                bad.setdefault(case, []).append(f"{name}: missing on one side")
            elif not abs(got[name] - want[name]) <= tol:
                bad.setdefault(case, []).append(
                    f"{name}: {got[name]!r} vs reference {want[name]!r}")
    return bad


def check(passes: list, reference) -> tuple[int, int, list]:
    """Counts attempted and failed case runs; a case run fails if it raised,
    broke a bound, or a value differs from the reference (or, for seeds
    without a reference, from the first pass of this run)."""
    expected = reference if reference is not None else passes[0]["values"]
    attempted = failed = 0
    messages: list = []
    for p in passes:
        mismatch = compare(p["values"], expected, p["metric_tol"])
        for case in p["cases"]:
            attempted += 1
            problems = p["failures"].get(case, []) + mismatch.get(case, [])
            if problems:
                failed += 1
                messages.append(f"{case}: {'; '.join(problems)}")
    return attempted, failed, messages


def digest(values: dict, tol: float) -> str:
    """Hash of the values rounded to 9 significant digits, dust below the
    metric tolerance snapped to 0; informational, not a gate."""
    h = hashlib.sha256()
    for case in sorted(values):
        for name in sorted(values[case]):
            v = values[case][name]
            text = "0" if abs(v) < tol else f"{v:.9g}"
            h.update(f"{case}|{name}|{text}\n".encode())
    return h.hexdigest()[:16]


# --- metrics ------------------------------------------------------------------------

def end_to_end(passes: list, setups: list) -> dict:
    return {
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "max_case_s": statistics.median(p["max_case_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def unscaled(passes: list, setups: list) -> dict:
    """Medians of the times as the clock read them, before speed scaling,
    and of the calibration kernel's time; informational."""
    plain = [p for p in passes if "layers" not in p]
    return {
        "setup_s": statistics.median(p["raw_setup_s"] for p in setups),
        "wall_s": statistics.median(p["raw_wall_s"] for p in plain),
        "max_case_s": statistics.median(p["raw_max_case_s"] for p in plain),
        "probe_ms": 1e3 * statistics.median(p["probe_s"] for p in plain),
    }


def layer_value(layers: dict, name: str):
    """``<layer>[.<function>].<stat>`` looked up in a tracer report."""
    owner, _, stat = name.rpartition(".")
    entry = layers.get(owner)
    return None if entry is None or stat not in entry else entry[stat]


def per_layer(passes: list, names: list) -> tuple[dict, list]:
    traced = [p for p in passes if "layers" in p]
    plain = [p for p in passes if "layers" not in p]
    out, absent = {}, []
    for name in names:
        if name == "trace.overhead_s":
            out[name] = (statistics.median(p["raw_wall_s"] for p in traced)
                         - statistics.median(p["raw_wall_s"] for p in plain))
            continue
        found = [layer_value(p["layers"], name) for p in traced]
        if any(v is None for v in found):
            absent.append(name)
            out[name] = 0
        else:
            out[name] = statistics.median(found)
    return out, absent


def load_spec() -> dict:
    try:
        with open(SPEC, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC}: {exc}")


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, list]:
    """Measure and check one workload; returns the result and the passes."""
    spec = load_spec()
    passes, setups = measure(workload, seed, seconds, trace, tiny)
    reference = None if tiny else load_reference(seed, workload)
    attempted, failed, messages = check(passes, reference)
    if trace:
        table = spec["per_layer"]
        values, absent = per_layer(passes, [m["name"] for m in table])
    else:
        table = spec["end_to_end"]
        values, absent = end_to_end(passes, setups), []
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in table},
        "messages": messages,
        "absent": absent,
        "digest": digest(passes[0]["values"], passes[0]["metric_tol"]),
        "checked_against": "reference" if reference is not None else "first pass",
        "pass_walls": [p["raw_wall_s"] for p in passes],
        "unscaled": unscaled(passes, setups),
        "env": passes[0]["env"],
    }
    return result, passes


def report(workload: str, seed: int, result: dict) -> None:
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    walls = " ".join(f"{w:.3f}" for w in result["pass_walls"])
    print(f"workload {workload} seed {seed}: {len(result['pass_walls'])} passes "
          f"(raw wall_s {walls}), values checked against {result['checked_against']}, "
          f"digest {result['digest']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_ratio = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} case runs failed)")
    print("  unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in result["unscaled"].items()))
    for name in result["absent"]:
        print(f"  absent: {name} (reported as 0)")
    for line in result["messages"][:50]:
        print(f"  FAILED {line}")


def _perturbed(values: dict, tol: float) -> dict:
    out = json.loads(json.dumps(values))
    case = sorted(out)[0]
    name = sorted(out[case])[0]
    out[case][name] += 10 * tol
    return out


def selftest() -> int:
    """Tiny sizes: every metric is emitted with its unit, no traced name is
    absent, and a perturbed reference value fails the correctness check."""
    spec = load_spec()
    from tracer import Tracer

    probe = Tracer(targets=(("numpy.linalg", "no_such_function"),
                            ("no_such_module", "eigh")))
    probe.install()
    probe.restore()
    assert probe.absent == ["numpy.linalg.no_such_function", "no_such_module.eigh"]
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            result, passes = run(workload, 1, 0.0, trace, tiny=True)
            table = spec["per_layer" if trace else "end_to_end"]
            assert result["correct"], (workload, result["messages"])
            assert set(result["metrics"]) == {m["name"] for m in table}, workload
            for m in table:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
            assert not result["absent"], (workload, result["absent"])
        assert check(passes, passes[0]["values"])[1] == 0
        bad = _perturbed(passes[0]["values"], passes[0]["metric_tol"])
        assert check(passes, bad)[1] > 0, f"{workload}: perturbed reference passed"
        print(f"selftest {workload}: ok")
    print("selftest: ok")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "qkdsec", "tolerances.py")):
            raise BenchError(f"no qkdsec sources under {os.path.join(ROOT, 'src')}")
        if args.selftest:
            return selftest()
        names = [w["name"] for w in load_spec()["workloads"]]
        if args.workload not in names:
            raise BenchError(f"--workload must be one of {names}")
        result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    report(args.workload, args.seed, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
