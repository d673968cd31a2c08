"""Property-based fuzzing of the text parsers and fixture loaders.

Every malformed input must end in one of the package's named ``ValueError``
subclasses, which the ``sim`` commands turn into exit code 1 and an
``error:`` line; a bare ``ValueError``, a numpy error or a ``KeyError``
would be a traceback.  Inputs that parse are fine too: the property is only
about how the parsers fail.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qkdsec import qstate as qs
from qkdsec.acframework import ScheduleMismatch
from qkdsec.harness import KNOWN_KEYS, ConfigError, load_channel, parse_attack, parse_config
from qkdsec.protocols.bb84 import InvalidParams

NAMED = (ConfigError, qs.StateError, InvalidParams, ScheduleMismatch)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _fails_by_name(call) -> None:
    try:
        call()
    except NAMED:
        pass
    except ValueError as exc:
        pytest.fail(f"unnamed {type(exc).__name__}: {exc}")


_numbers = st.one_of(
    st.integers(min_value=-3, max_value=6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "-", "1e999", "-1e999", "nan", "inf", "0x10", "1_0", "١",
                     "9" * 5000, "1.5", "+2", " 3 "]),
    st.text(max_size=6),
)


def _entry():
    pairs = st.tuples(_numbers, _numbers).map(lambda p: f"{p[0]},{p[1]}")
    return st.one_of(pairs, pairs, _numbers, st.tuples(_numbers, _numbers, _numbers)
                     .map(",".join))


def _rows(width_hint=4):
    return st.lists(st.lists(_entry(), max_size=width_hint).map(" ".join), max_size=9)


def _file_text(header):
    structured = st.tuples(header, _rows()).map(lambda p: "\n".join([p[0], *p[1]]) + "\n")
    return st.one_of(structured, structured, st.text(max_size=80))


# --- parse_config ------------------------------------------------------------------

_keys = st.one_of(st.sampled_from(sorted(KNOWN_KEYS)), st.text(max_size=8))
_config_lines = st.one_of(
    st.tuples(_keys, _numbers).map(lambda p: f"{p[0]} = {p[1]}"),
    st.tuples(_keys, _numbers).map(lambda p: f"{p[0]}={p[1]} # note"),
    st.text(max_size=20),
)


@FUZZ
@given(st.lists(_config_lines, max_size=8).map("\n".join), st.booleans())
def test_parse_config_fails_by_name(text, require_seed):
    _fails_by_name(lambda: parse_config(text, require_seed=require_seed))


# --- parse_attack ------------------------------------------------------------------

_specs = st.one_of(
    st.tuples(st.sampled_from(["intercept-resend:", "depolarize:", "identity", "steal-replace",
                               "intercept-resend", "depolarize", "unknown:", ""]),
              _numbers).map("".join),
    # custom:FILE hands the file to load_channel, which is fuzzed below
    st.text(max_size=20).filter(lambda s: not s.startswith("custom:")),
)


@FUZZ
@given(_specs, st.integers(min_value=1, max_value=10))
def test_parse_attack_fails_by_name(spec, n):
    _fails_by_name(lambda: parse_attack(spec, n))


# --- fixture files -----------------------------------------------------------------

def _write(path, content) -> None:
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")


_channel_header = st.one_of(
    st.tuples(_numbers, _numbers).map(lambda p: f"env {p[0]} kraus {p[1]}"),
    st.sampled_from(["env 1 kraus 1", "env 2 kraus 1", "env 1 kraus 2", "env", ""]),
    st.text(max_size=16),
)


@FUZZ
@given(st.one_of(_file_text(_channel_header), st.binary(max_size=60)))
@example(b"env 1 kraus 1\n\x80")  # not UTF-8
def test_load_channel_fails_by_name(tmp_path, content):
    path = tmp_path / "fuzz.chan"
    _write(path, content)
    _fails_by_name(lambda: load_channel(path))
