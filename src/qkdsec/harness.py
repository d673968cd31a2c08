"""Configuration parsing, channel fixtures, scenario dispatch, CSV.

Every run is driven by one 64-bit seed.  The seed picks the parity-check
and hashing matrices H and T of a QKD run (``default_code_matrices``) and
seeds the randomised property checks of ``sim metrics check``; nothing else
is random, and every composition scenario (``SCENARIOS``, run by
``run_scenario``) is an exact enumeration.

A config file sets only the keys it names.  ``READS`` is the one table of
which keys each ``sim`` subcommand and each scenario (its reader) reads and
their defaults; ``reader_values`` merges a reader's defaults under the set
values and refuses (``UnreadKey``) a key the reader does not read.
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .qstate import make_channel
from .protocols import bb84, scenarios
from .protocols.hashing import affine_family

__all__ = [
    "ConfigError",
    "UnknownKey",
    "UnreadKey",
    "BadValue",
    "MissingSeed",
    "MalformedFixture",
    "RunConfig",
    "READS",
    "parse_config",
    "reader_values",
    "qkd_params",
    "run_scenario",
    "ReportRow",
    "write_csv",
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


class MalformedFixture(ConfigError):
    """A channel fixture line that does not parse; the message names file and line."""


SCENARIOS = ("leaked-key", "qkd-otp", "parallel-qkd", "key-expansion")

# every config key and the type its value is converted to
_KEY_TYPES = {"n_qubits": int, "t": int, "out_len": int, "h_rows": int, "seed": int,
              "split": int, "msg": int, "rounds": int, "b": int, "trials": int,
              "q_tol": float, "attack": str, "out": str}
_TYPE_NAMES = {int: "an integer", float: "a number"}
KNOWN_KEYS = set(_KEY_TYPES)

# the config keys each ``sim`` subcommand and each scenario reads, besides the
# seed and the output path, with their defaults; a reader refuses every other
# key, and the subcommands take their other values from flags
READS = {
    "qkd run": {"n_qubits": 4, "t": 2, "q_tol": 0.25, "out_len": 1, "h_rows": 1,
                "attack": "identity"},
    "auth sweep": {},
    "metrics check": {"trials": None},
    "lockdemo": {},
    "leaked-key": {"n_qubits": 4, "t": 1, "q_tol": 0.25, "out_len": 2, "h_rows": 1,
                   "split": 1},
    "qkd-otp": {"n_qubits": 4, "t": 2, "q_tol": 0.25, "out_len": 1, "h_rows": 1,
                "msg": 0},
    "parallel-qkd": {"n_qubits": 3, "t": 1, "q_tol": 0.25, "out_len": 1, "h_rows": 1},
    "key-expansion": {"n_qubits": 2, "t": 1, "q_tol": 0.25, "out_len": 1, "h_rows": 0,
                      "rounds": 1, "b": 4},
}


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration.

    ``params`` holds only the keys the configuration set, so an explicit
    value wins over a reader's default even when it equals another reader's.
    """

    seed: int
    params: dict
    out: str | None = None


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
        kind = _KEY_TYPES[key]
        try:
            values[key] = kind(value)
        except ValueError:
            raise BadValue(f"line {lineno}: {key} must be {_TYPE_NAMES[kind]}, "
                           f"got {value!r}")
    if "q_tol" in values and not 0.0 <= values["q_tol"] <= 1.0:
        raise BadValue(f"q_tol = {values['q_tol']} outside [0, 1]")
    if require_seed and "seed" not in values:
        raise MissingSeed("config must set a seed (no ambient randomness)")
    seed = values.pop("seed", 0)
    out = values.pop("out", None)
    return RunConfig(seed=seed, params=values, out=out)


def reader_values(cfg: RunConfig, reader: str) -> dict:
    """The values ``reader`` (a key of :data:`READS`) runs with.

    The config's values win over the reader's defaults; a key the reader
    does not read is refused (``UnreadKey``), so no value is silently ignored.
    """
    defaults = READS[reader]
    unread = sorted(cfg.params.keys() - defaults.keys())
    if unread:
        kind = "scenario" if reader in SCENARIOS else "subcommand"
        raise UnreadKey(f"{kind} {reader!r} does not read config key "
                        f"{', '.join(map(repr, unread))}")
    return {**defaults, **cfg.params}


class ReportRow(NamedTuple):
    """One checked case of a report; ``ReportRow._fields`` is the CSV header."""

    scenario: str
    case: str
    measured: float
    bound: float
    holds: bool


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


_SCENARIO_CAPS = {"parallel-qkd": 3, "key-expansion": 3}


def qkd_params(reader: str, values: dict, seed: int) -> bb84.QkdParams:
    """The protocol parameters in ``reader_values(cfg, reader)``, drawn from ``seed``."""
    cap = _SCENARIO_CAPS.get(reader)
    n = values["n_qubits"]
    if cap is not None and n > cap:
        raise BadValue(f"scenario {reader!r} supports n_qubits <= {cap}, got {n}")
    return bb84.default_params(
        n_qubits=n, t=values["t"], q_tol=values["q_tol"], out_len=values["out_len"],
        h_rows=values["h_rows"], seed=seed)


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


def open_fixture(path) -> io.StringIO:
    """The text of a fixture file, read as UTF-8 with universal newlines.

    Bytes that are not UTF-8 raise :class:`MalformedFixture` naming ``path``
    and the line they are on.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedFixture(f"{path}, line {line}: not UTF-8 text") from None


def read_rows(fh, path, first_line: int, count: int, width: int) -> np.ndarray:
    """Read ``count`` rows of ``width`` entries, one row per line, each ``re,im``.

    ``first_line`` is the file line number of the first row; a short row, a
    missing line or an entry that is not two comma-separated numbers raises
    :class:`MalformedFixture` naming ``path`` and the line.
    """
    rows = []
    for line in range(first_line, first_line + count):
        parts = fh.readline().split()
        if len(parts) != width:
            raise MalformedFixture(
                f"{path}, line {line}: expected {width} entries, got {len(parts)}")
        row = []
        for entry in parts:
            try:
                re, im = entry.split(",")
                row.append(complex(float(re), float(im)))
            except ValueError:
                raise MalformedFixture(
                    f"{path}, line {line}: entry {entry!r} is not 're,im'") from None
        rows.append(row)
    return np.array(rows, dtype=complex)


def load_channel(path):
    """Channel fixture: ``env D kraus K`` then K stacked (2*D) x 2 blocks."""
    with open_fixture(path) as fh:
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


def run_scenario(name: str, cfg: RunConfig) -> list[ReportRow]:
    """Execute the scenario ``name``; deterministic given the config seed.

    A config key the scenario does not read is refused (``UnreadKey``).
    """
    if name not in SCENARIOS:
        raise BadValue(f"unknown scenario {name!r}")
    values = reader_values(cfg, name)
    rows: list[ReportRow] = []

    def add(case, measured, bound, holds):
        rows.append(ReportRow(name, case, float(measured), float(bound), bool(holds)))

    params = qkd_params(name, values, cfg.seed)
    if name in ("leaked-key", "qkd-otp"):
        attacks = [bb84.identity_attack(),
                   bb84.intercept_resend(params.n_qubits, 1.0)]
        report = (scenarios.leaked_key_scenario(params, values["split"], attacks)
                  if name == "leaked-key"
                  else scenarios.qkd_otp_scenario(params, values["msg"], attacks))
        add(report.name, report.left_value, tol.METRIC_TOL, report.holds)
    elif name == "parallel-qkd":
        _, cases, eps_single = scenarios.parallel_qkd_scenario(params)
        for case, value in cases:
            add(case, value, 2.0 * eps_single, value <= 2.0 * eps_single + tol.METRIC_TOL)
    else:
        result = scenarios.key_expansion(values["rounds"], affine_family(values["b"]),
                                         params)
        total = result.ledger.total  # an fsum over every round's entries
        for case, value in result.rows:
            add(case, value, total, value <= total + tol.METRIC_TOL)
        add("ledger-total", total, total, True)
    return rows
