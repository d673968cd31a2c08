"""Configuration parsing, deterministic randomness, scenario dispatch, CSV.

Every run is driven by one 64-bit seed; subsystems derive their generators
through numbered Philox streams (``seeded_rng(seed, stream)``), so parallel
evaluation cannot perturb reproducibility.  All scenario computations are
exact enumerations; the seed only feeds the randomised property checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .metrics import property_suite
from .protocols import bb84, scenarios
from .protocols.hashing import affine_family

__all__ = [
    "ConfigError",
    "UnknownKey",
    "BadValue",
    "MissingSeed",
    "RunConfig",
    "parse_config",
    "run_scenario",
    "ReportRow",
    "emit_csv",
    "seeded_rng",
    "SCENARIOS",
]


class ConfigError(ValueError):
    pass


class UnknownKey(ConfigError):
    pass


class BadValue(ConfigError):
    pass


class MissingSeed(ConfigError):
    pass


SCENARIOS = ("leaked-key", "qkd-otp", "parallel-qkd", "key-expansion", "metrics-suite")

_INT_KEYS = {"n_qubits", "t", "out_len", "h_rows", "seed", "split", "msg",
             "rounds", "b", "m", "trials"}
_FLOAT_KEYS = {"q_tol"}
_STR_KEYS = {"scenario", "attack", "out"}
KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

_DEFAULTS = {
    "scenario": None,
    "n_qubits": 4,
    "t": 2,
    "q_tol": 0.25,
    "out_len": 1,
    "h_rows": 1,
    "attack": "identity",
    "out": None,
    "split": 0,
    "msg": 0,
    "rounds": 1,
    "b": 4,
    "m": 2,
    "trials": None,
}


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration.

    ``params`` holds only the keys the configuration set, so an explicit
    value wins over a scenario default even when it equals the global
    default; :meth:`param` falls back to the global defaults.
    """

    scenario: str | None
    seed: int
    params: dict
    attack: str = "identity"
    out: str | None = None
    tolerance_overrides: dict = field(default_factory=dict)

    def param(self, key, default=None):
        return self.params.get(key, _DEFAULTS.get(key, default))


def parse_config(text: str, *, require_seed: bool = True) -> RunConfig:
    """Parse line-oriented ``key = value`` configuration text.

    Unknown and duplicated keys are rejected with the offending line number;
    a seed is mandatory so no run depends on ambient randomness.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadValue(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise BadValue(f"line {lineno}: duplicate key {key!r}")
        if key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise BadValue(f"line {lineno}: {key} must be an integer, got {value!r}")
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError:
                raise BadValue(f"line {lineno}: {key} must be a number, got {value!r}")
        else:
            values[key] = value
    if "q_tol" in values and not 0.0 <= values["q_tol"] <= 1.0:
        raise BadValue(f"q_tol = {values['q_tol']} outside [0, 1]")
    if "scenario" in values and values["scenario"] not in SCENARIOS:
        raise BadValue(f"unknown scenario {values['scenario']!r}")
    if require_seed and "seed" not in values:
        raise MissingSeed("config must set a seed (no ambient randomness)")
    seed = values.pop("seed", 0)
    scenario = values.pop("scenario", None)
    attack = values.pop("attack", _DEFAULTS["attack"])
    out = values.pop("out", None)
    return RunConfig(scenario=scenario, seed=seed, params=values,
                     attack=attack, out=out)


def seeded_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for (seed, stream); streams are independent jumps."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(stream))


@dataclass(frozen=True)
class ReportRow:
    scenario: str
    case: str
    measured: float
    bound: float
    holds: bool
    runtime_ms: float = 0.0


def _fmt(value: float) -> str:
    if value == math.inf:
        return "inf"
    return f"{value:.12g}"


def emit_csv(rows, path, *, include_timing: bool = False) -> None:
    """Write rows with the fixed header; floats get 12 significant digits.

    Timing is zeroed by default so reruns with the same seed produce
    byte-identical files; pass ``include_timing=True`` to keep wall-clock
    numbers.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("scenario,case,measured,bound,holds,runtime_ms\n")
        for row in rows:
            ms = row.runtime_ms if include_timing else 0.0
            fh.write(f"{row.scenario},{row.case},{_fmt(row.measured)},"
                     f"{_fmt(row.bound)},{'true' if row.holds else 'false'},"
                     f"{_fmt(ms)}\n")


# scenario-appropriate protocol sizes; config values still win
_SCENARIO_DEFAULTS = {
    "leaked-key": {"n_qubits": 4, "t": 1, "out_len": 2, "h_rows": 1, "split": 1},
    "qkd-otp": {"n_qubits": 4, "t": 2, "out_len": 1, "h_rows": 1},
    "parallel-qkd": {"n_qubits": 3, "t": 1, "out_len": 1, "h_rows": 1},
    "key-expansion": {"n_qubits": 2, "t": 1, "out_len": 1, "h_rows": 0},
}

_SCENARIO_CAPS = {"parallel-qkd": 3, "key-expansion": 3}


def _scenario_param(cfg: RunConfig, key):
    if key in cfg.params:
        return cfg.params[key]
    return _SCENARIO_DEFAULTS.get(cfg.scenario, {}).get(key, cfg.param(key))


def _qkd_params(cfg: RunConfig) -> bb84.QkdParams:
    cap = _SCENARIO_CAPS.get(cfg.scenario)
    n = _scenario_param(cfg, "n_qubits")
    if cap is not None and n > cap:
        raise BadValue(
            f"scenario {cfg.scenario!r} supports n_qubits <= {cap}, got {n}")
    return bb84.default_params(
        n_qubits=n,
        t=_scenario_param(cfg, "t"),
        q_tol=_scenario_param(cfg, "q_tol"),
        out_len=_scenario_param(cfg, "out_len"),
        h_rows=_scenario_param(cfg, "h_rows"),
        seed=cfg.seed,
    )


def parse_attack(spec: str, n: int):
    """Attack spec grammar: identity | intercept-resend:p | depolarize:q | custom:FILE."""
    if spec == "identity":
        return bb84.identity_attack()
    if spec.startswith("intercept-resend:"):
        return bb84.intercept_resend(n, float(spec.split(":", 1)[1]))
    if spec.startswith("depolarize:"):
        return bb84.depolarize_attack(n, float(spec.split(":", 1)[1]))
    if spec == "steal-replace":
        return bb84.steal_replace_attack(n)
    if spec.startswith("custom:"):
        return bb84.custom_attack(n, load_channel(spec.split(":", 1)[1]))
    raise BadValue(f"unknown attack spec {spec!r}")


def load_channel(path):
    """Channel fixture: ``env D kraus K`` then K stacked (2*D) x 2 blocks."""
    from .qstate import make_channel

    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "env" or header[2] != "kraus":
            raise BadValue(f"{path}: first line must be 'env D kraus K'")
        env_dim, kraus = int(header[1]), int(header[3])
        ops = []
        for _ in range(kraus):
            rows = []
            for _ in range(2 * env_dim):
                parts = fh.readline().split()
                if len(parts) != 2:
                    raise BadValue(f"{path}: expected 2 entries per row")
                rows.append([complex(float(re), float(im))
                             for re, im in (p.split(",") for p in parts)])
            ops.append(np.array(rows))
    return make_channel(ops, out_dims=(2, env_dim))


def save_channel(path, channel) -> None:
    env_dim = int(np.prod(channel.out_dims[1:])) if len(channel.out_dims) > 1 else 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"env {env_dim} kraus {len(channel.kraus_ops)}\n")
        for op in channel.kraus_ops:
            for row in op:
                fh.write(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) + "\n")


def run_scenario(cfg: RunConfig) -> list[ReportRow]:
    """Execute one named scenario; deterministic given the config seed."""
    if cfg.scenario is None:
        raise BadValue("config does not name a scenario")
    rows: list[ReportRow] = []
    last = time.perf_counter()

    def add(case, measured, bound, holds):
        # per case: the time since the previous row (or since the start)
        nonlocal last
        now = time.perf_counter()
        ms = (now - last) * 1000.0
        last = now
        rows.append(ReportRow(cfg.scenario, case, float(measured), float(bound),
                              bool(holds), ms))

    if cfg.scenario == "metrics-suite":
        for res in property_suite(cfg.seed, cfg.param("trials")):
            add(res.name, res.max_violation, tol.METRIC_TOL, res.passed)
        return rows

    if cfg.scenario == "leaked-key":
        params = _qkd_params(cfg)
        attacks = [bb84.identity_attack(),
                   bb84.intercept_resend(params.n_qubits, 1.0)]
        report = scenarios.leaked_key_scenario(params, _scenario_param(cfg, "split"),
                                               attacks)
        add(report.name, report.left_value, tol.METRIC_TOL, report.holds)
        return rows

    if cfg.scenario == "qkd-otp":
        params = _qkd_params(cfg)
        attacks = [bb84.identity_attack(),
                   bb84.intercept_resend(params.n_qubits, 1.0)]
        report = scenarios.qkd_otp_scenario(params, _scenario_param(cfg, "msg"),
                                            attacks)
        add(report.name, report.left_value, tol.METRIC_TOL, report.holds)
        return rows

    if cfg.scenario == "parallel-qkd":
        params = _qkd_params(cfg)
        report, cases, eps_single = scenarios.parallel_qkd_scenario(params)
        for name, value in cases:
            add(name, value, 2.0 * eps_single, value <= 2.0 * eps_single + tol.METRIC_TOL)
        return rows

    if cfg.scenario == "key-expansion":
        params = _qkd_params(cfg)
        fam = affine_family(cfg.param("b"))
        result = scenarios.key_expansion(cfg.param("rounds"), fam, params)
        for name, value in result.rows:
            add(name, value, result.ledger.total,
                value <= result.ledger.total + tol.METRIC_TOL)
        add("ledger-total", result.ledger.total, result.ledger.total, True)
        return rows

    raise BadValue(f"unknown scenario {cfg.scenario!r}")
