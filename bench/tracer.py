"""External tracer: wraps layer-boundary functions of ``qkdsec`` and numpy.

Modules bind each other's functions by name (``from .linalg import
hermitian_eig``), so patching only the defining module would miss most call
sites.  :meth:`Tracer.install` therefore replaces *every* attribute of every
loaded ``qkdsec.*`` module (and of the defining module) that is the target
function object, and :meth:`Tracer.restore` puts the originals back.

Every wrapped call is a span: it has a start, an end and a parent (the
enclosing wrapped call).  Spans are folded into per-function aggregates as
they close instead of being stored, so a leaf called millions of times costs
two clock reads and a few additions, and memory stays flat:

* ``calls``: number of calls;
* ``busy_s``: time inside outermost calls (recursion is not double counted);
* ``self_s``: span time minus the time covered by its direct child spans;
* ``dim3_sum`` / ``max_dim``: for eigensolvers, the sum of n**3 over calls
  (times the batch size for stacked input) and the largest n;
* ``distinct_ratio``: distinct argument keys over calls, for functions whose
  repeated evaluation is wasted work.

A target that no longer exists is reported in :attr:`Tracer.absent`.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, function) pairs wrapped in a traced pass.  Those not named by a
# per-layer metric are wrapped so that their time is attributed to their
# module's self time instead of to the caller's.
TARGETS = (
    ("qkdsec.linalg", "hermitian_eig"),
    ("qkdsec.linalg", "trace_norm_of_factored_sum"),
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "eigh"),
    ("qkdsec.qstate", "make_density"),
    ("qkdsec.qstate", "make_cq"),
    ("qkdsec.metrics", "trace_distance"),
    ("qkdsec.metrics", "cq_trace_distance"),
    ("qkdsec.metrics", "uniform_key_twin"),
    ("qkdsec.metrics", "entropy_bounds"),
    ("qkdsec.metrics", "alt_secrecy_relation"),
    ("qkdsec.metrics", "pguess_exact"),
    ("qkdsec.metrics", "von_neumann_entropy"),
    ("qkdsec.metrics", "helstrom_povm"),
    ("qkdsec.metrics", "property_suite"),
    ("qkdsec.protocols.bb84", "qkd_run"),
    ("qkdsec.protocols.bb84", "leaked_advantage"),
    ("qkdsec.protocols.bb84", "otp_composed_advantage"),
    ("qkdsec.protocols.auth", "accept_probability"),
    ("qkdsec.protocols.auth", "exhaustive_substitution_advantage"),
    ("qkdsec.protocols.hashing", "verify_asu2"),
    ("qkdsec.protocols.scenarios", "leaked_key_scenario"),
    ("qkdsec.protocols.scenarios", "qkd_otp_scenario"),
    ("qkdsec.protocols.scenarios", "parallel_qkd_scenario"),
    ("qkdsec.protocols.scenarios", "product_pair_advantage"),
    ("qkdsec.protocols.scenarios", "swap_crossing_advantage"),
    ("qkdsec.protocols.scenarios", "authenticated_round_distance"),
    ("qkdsec.protocols.scenarios", "key_expansion"),
    ("qkdsec.protocols.scenarios", "locking_demo"),
    ("qkdsec.acframework", "advantage_over_family"),
    ("qkdsec.acframework", "evaluate"),
    ("qkdsec.acframework", "state_distance"),
    ("qkdsec.harness", "run_scenario"),
    ("qkdsec.cli", "main"),
)


def _eig_size(args, kwargs):
    shape = getattr(args[0] if args else kwargs.get("matrix", kwargs.get("a")),
                    "shape", ())
    if len(shape) < 2:
        return 0, 0
    n = int(shape[-1])
    batch = 1
    for d in shape[:-2]:
        batch *= int(d)
    return n, batch * n ** 3


def _qkd_key(args, kwargs):
    params = args[0] if args else kwargs["params"]
    attack = args[1] if len(args) > 1 else kwargs["attack"]
    return params, attack.name


def _round_key(args, kwargs):
    params, fam = args[0], args[1]
    spec = args[2] if len(args) > 2 else kwargs["attack_spec"]
    return params, fam, tuple(sorted(spec.items()))


SIZE_OF = {
    ("qkdsec.linalg", "hermitian_eig"): _eig_size,
    ("numpy.linalg", "eigvalsh"): _eig_size,
    ("numpy.linalg", "eigh"): _eig_size,
}
KEY_OF = {
    ("qkdsec.protocols.bb84", "qkd_run"): _qkd_key,
    ("qkdsec.protocols.scenarios", "authenticated_round_distance"): _round_key,
}


class Stat:
    __slots__ = ("calls", "busy_s", "self_s", "dim3_sum", "max_dim", "depth", "keys")

    def __init__(self, keyed: bool):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.dim3_sum = 0
        self.max_dim = 0
        self.depth = 0
        self.keys = set() if keyed else None

    def as_dict(self) -> dict:
        out = {"calls": self.calls, "busy_s": self.busy_s, "self_s": self.self_s,
               "dim3_sum": self.dim3_sum, "max_dim": self.max_dim}
        if self.keys is not None:
            out["distinct_ratio"] = len(self.keys) / self.calls if self.calls else 0.0
        return out


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.stats: dict[tuple[str, str], Stat] = {}
        self.absent: list[str] = []
        self._patched: list = []
        self._stack: list[float] = []

    def _wrap(self, stat: Stat, fn, size_of, key_of):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if size_of is not None:
                n, work = size_of(args, kwargs)
                stat.dim3_sum += work
                if n > stat.max_dim:
                    stat.max_dim = n
            if key_of is not None:
                stat.keys.add(key_of(args, kwargs))
            stack.append(0.0)
            stat.depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stat.depth -= 1
                child = stack.pop()
                if stack:
                    stack[-1] += span
                stat.calls += 1
                stat.self_s += span - child
                if stat.depth == 0:
                    stat.busy_s += span

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def install(self) -> None:
        for target in self.targets:
            mod_name, fn_name = target
            try:
                home = importlib.import_module(mod_name)
                fn = getattr(home, fn_name)
            except (ImportError, AttributeError):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            key_of = KEY_OF.get(target)
            stat = self.stats[target] = Stat(keyed=key_of is not None)
            wrapper = self._wrap(stat, fn, SIZE_OF.get(target), key_of)
            modules = [home] + [m for name, m in list(sys.modules.items())
                                if (name == "qkdsec" or name.startswith("qkdsec."))
                                and m is not home and m is not None]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def report(self) -> dict:
        """Aggregates keyed ``<layer>.<function>`` and ``<layer>``, where the layer
        is the module name without the ``qkdsec.`` prefix."""
        out: dict = {}
        for (mod_name, fn_name), stat in self.stats.items():
            layer_name = mod_name.removeprefix("qkdsec.")
            out[f"{layer_name}.{fn_name}"] = stat.as_dict()
            layer = out.setdefault(layer_name, {"self_s": 0.0})
            layer["self_s"] += stat.self_s
        return out
