"""Configuration parsing, deterministic randomness, scenario dispatch, CSV.

Every run is driven by one 64-bit seed.  The seed picks the parity-check
and hashing matrices H and T of a QKD run (``default_code_matrices``) and
seeds the randomised property checks; nothing else is random, and every
scenario computation is an exact enumeration.  ``seeded_rng(seed, stream)``
gives independent numbered Philox streams for callers that want them; no
subsystem here draws from it.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .metrics import property_suite
from .qstate import make_channel, read_rows, write_rows
from .protocols import bb84, scenarios
from .protocols.hashing import affine_family

__all__ = [
    "ConfigError",
    "UnknownKey",
    "UnreadKey",
    "BadValue",
    "MissingSeed",
    "RunConfig",
    "parse_config",
    "check_subcommand_keys",
    "run_scenario",
    "ReportRow",
    "write_csv",
    "emit_csv",
    "seeded_rng",
    "SCENARIOS",
]


class ConfigError(ValueError):
    pass


class UnknownKey(ConfigError):
    pass


class UnreadKey(ConfigError):
    pass


class BadValue(ConfigError):
    pass


class MissingSeed(ConfigError):
    pass


SCENARIOS = ("leaked-key", "qkd-otp", "parallel-qkd", "key-expansion", "metrics-suite")

_INT_KEYS = {"n_qubits", "t", "out_len", "h_rows", "seed", "split", "msg",
             "rounds", "b", "trials"}
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
    out: str | None = None

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
    out = values.pop("out", None)
    return RunConfig(scenario=scenario, seed=seed, params=values, out=out)


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


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write a CSV table to ``path``, or to stdout when ``path`` is empty.

    ``header`` and each row are tuples of cells.  Floats get 12 significant
    digits (``inf`` and ``nan`` as Python spells them), booleans are
    ``true``/``false`` and any other cell is ``str``.
    """
    text = "".join(",".join(map(_cell, row)) + "\n" for row in (header, *rows))
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def emit_csv(rows, path) -> None:
    """Write report rows with the fixed header.

    ``runtime_ms`` is written as 0 so reruns with the same seed produce
    byte-identical files.
    """
    write_csv(path, ("scenario", "case", "measured", "bound", "holds", "runtime_ms"),
              [(r.scenario, r.case, r.measured, r.bound, r.holds, 0.0) for r in rows])


# scenario-appropriate protocol sizes; config values still win
_SCENARIO_DEFAULTS = {
    "leaked-key": {"n_qubits": 4, "t": 1, "out_len": 2, "h_rows": 1, "split": 1},
    "qkd-otp": {"n_qubits": 4, "t": 2, "out_len": 1, "h_rows": 1},
    "parallel-qkd": {"n_qubits": 3, "t": 1, "out_len": 1, "h_rows": 1},
    "key-expansion": {"n_qubits": 2, "t": 1, "out_len": 1, "h_rows": 0},
}

_SCENARIO_CAPS = {"parallel-qkd": 3, "key-expansion": 3}

# the config keys each scenario reads, besides the seed and the output path
_QKD_KEYS = {"n_qubits", "t", "q_tol", "out_len", "h_rows"}
_SCENARIO_KEYS = {
    "leaked-key": _QKD_KEYS | {"split"},
    "qkd-otp": _QKD_KEYS | {"msg"},
    "parallel-qkd": _QKD_KEYS,
    "key-expansion": _QKD_KEYS | {"rounds", "b"},
    "metrics-suite": {"trials"},
}
# the config keys each other ``sim`` subcommand reads, besides the seed and
# the output path; its other values come from flags
_SUBCOMMAND_KEYS = {
    "qkd run": _QKD_KEYS | {"attack"},
    "auth sweep": set(),
    "metrics check": {"trials"},
    "lockdemo": set(),
}


def _refuse_unread(keys, reader: str, read) -> None:
    unread = sorted(set(keys) - read)
    if unread:
        raise UnreadKey(f"{reader} does not read config key "
                        f"{', '.join(map(repr, unread))}")


def check_subcommand_keys(cfg: RunConfig, subcommand: str) -> None:
    """Refuse (``UnreadKey``) every config key ``sim subcommand`` does not read.

    ``subcommand`` is one of ``qkd run``, ``auth sweep``, ``metrics check``
    and ``lockdemo``; none of them reads ``scenario``.
    """
    keys = set(cfg.params) | ({"scenario"} if cfg.scenario is not None else set())
    _refuse_unread(keys, f"subcommand {subcommand!r}", _SUBCOMMAND_KEYS[subcommand])


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
        return bb84.intercept_resend(n, _attack_probability(spec))
    if spec.startswith("depolarize:"):
        return bb84.depolarize_attack(n, _attack_probability(spec))
    if spec == "steal-replace":
        return bb84.steal_replace_attack(n)
    if spec.startswith("custom:"):
        return bb84.custom_attack(n, load_channel(spec.split(":", 1)[1]))
    raise BadValue(f"unknown attack spec {spec!r}")


def _attack_probability(spec: str) -> float:
    text = spec.split(":", 1)[1]
    try:
        value = float(text)
    except ValueError:
        raise BadValue(f"attack {spec!r}: {text!r} is not a number") from None
    if not 0.0 <= value <= 1.0:
        raise BadValue(f"attack {spec!r}: parameter {value} outside [0, 1]")
    return value


def load_channel(path):
    """Channel fixture: ``env D kraus K`` then K stacked (2*D) x 2 blocks."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        try:
            if len(header) != 4 or header[0] != "env" or header[2] != "kraus":
                raise ValueError
            env_dim, kraus = int(header[1]), int(header[3])
            if env_dim < 1 or kraus < 1:
                raise ValueError
        except ValueError:
            raise BadValue(f"{path}, line 1: first line must be 'env D kraus K' "
                           f"with D, K >= 1") from None
        block = 2 * env_dim
        ops = [read_rows(fh, path, 2 + k * block, block, 2) for k in range(kraus)]
    return make_channel(ops, out_dims=(2, env_dim))


def save_channel(path, channel) -> None:
    env_dim = int(np.prod(channel.out_dims[1:])) if len(channel.out_dims) > 1 else 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"env {env_dim} kraus {len(channel.kraus_ops)}\n")
        for op in channel.kraus_ops:
            write_rows(fh, op)


def run_scenario(cfg: RunConfig) -> list[ReportRow]:
    """Execute one named scenario; deterministic given the config seed.

    A config key the scenario does not read is refused (``UnreadKey``), so
    no value is silently ignored.
    """
    if cfg.scenario is None:
        raise BadValue("config does not name a scenario")
    if cfg.scenario not in _SCENARIO_KEYS:
        raise BadValue(f"unknown scenario {cfg.scenario!r}")
    _refuse_unread(cfg.params, f"scenario {cfg.scenario!r}", _SCENARIO_KEYS[cfg.scenario])
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
