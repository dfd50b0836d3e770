"""Per-layer tracing of ``qch`` from outside the package.

Every public function of every ``qch`` module is wrapped at each module
binding that refers to it (``qch.identities.curv_dot`` as well as
``qch.derivation.curv_dot``), so calls between modules are seen no matter
which namespace they go through.  ``Tensor`` and ``HermitianSpace``
construction are traced through their ``__post_init__`` validation.

A span's self time is its duration minus the durations of the traced spans
it called.  The recorder keeps aggregates only (calls and self time per
function), never the individual spans, so tracing a run with tens of
thousands of calls stays cheap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
import tracemalloc
from collections import defaultdict

MODULES = ("tensors", "spaces", "curvature", "derivation", "identities", "profiles", "cli")

# The per-layer metrics of BENCHMARK.json, in order, with their units.
METRICS = {
    "derivation.curv_dot.calls": "count",
    "derivation.curv_dot.self_s": "s",
    "derivation.curv_dot.p50_ms": "ms",
    "derivation.curv_dot.p99_ms": "ms",
    "derivation.curv_dot.peak_alloc_mb": "MB",
    "derivation.flops_computed": "flop",
    "derivation.bytes_out_computed": "B",
    "derivation.operators.self_s": "s",
    "curvature.kahler_check.calls": "count",
    "curvature.kahler_check.self_s": "s",
    "curvature.blocks.calls": "count",
    "curvature.blocks.self_s": "s",
    "curvature.blocks.distinct_frac": "ratio",
    "curvature.self_s": "s",
    "tensors.construct.calls": "count",
    "tensors.construct.self_s": "s",
    "tensors.max_abs.calls": "count",
    "tensors.max_abs.self_s": "s",
    "identities.checks": "count",
    "identities.self_s": "s",
    "identities.worst_margin": "ratio",
    "spaces.calls": "count",
    "spaces.self_s": "s",
    "profiles.solve.calls": "count",
    "profiles.solve.self_s": "s",
    "profiles.report.self_s": "s",
    "profiles.ab2.calls": "count",
    "profiles.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
}

_BLOCKS = ("curvature.build_pi", "curvature.build_phi", "curvature.build_psi")
_VALIDATED = ("Tensor", "HermitianSpace")  # classes whose construction validates


def _modules():
    return [importlib.import_module(f"qch.{name}") for name in MODULES]


def traced_functions():
    """``{key: (owner, attribute)}`` for every traced callable.

    ``owner`` is the defining module, or the class for a ``__post_init__``.
    """
    found = {}
    for mod in _modules():
        short = mod.__name__.rsplit(".", 1)[1]
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[f"{short}.{name}"] = (mod, name)
            elif name in _VALIDATED:
                found[f"{short}.{name}"] = (obj, "__post_init__")
    return found


class Patches:
    """Replaces a function at every binding in ``qch`` and restores it."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        """Wrap ``owner.attr`` and, for a module function, every other
        ``qch`` module attribute bound to the same object."""
        current = getattr(owner, attr)
        wrapper = make_wrapper(current)
        targets = [(owner, attr)]
        if inspect.ismodule(owner):
            import qch

            for mod in [qch] + _modules():
                for name, obj in list(vars(mod).items()):
                    if obj is current and (mod, name) != (owner, attr):
                        targets.append((mod, name))
        for target, name in targets:
            self._saved.append((target, name, getattr(target, name)))
            setattr(target, name, wrapper)

    def restore(self):
        while self._saved:
            target, name, obj = self._saved.pop()
            setattr(target, name, obj)


class Recorder:
    """Aggregated spans of one pass over a workload's commands."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.curv_dot_ms = []
        self.peak_alloc = 0
        self.alloc_shapes = set()
        self.flops = 0
        self.bytes_out = 0
        self.block_keys = set()
        self.checks = 0
        self.worst_margin = 0.0
        self._children = []  # child-time accumulators of the open spans
        self._identities_depth = 0

    def span(self, key, fn, args, kwargs):
        in_identities = key.startswith("identities.")
        outermost_check = in_identities and self._identities_depth == 0
        self._identities_depth += in_identities
        self._children.append(0.0)
        is_curv_dot = key == "derivation.curv_dot"
        # allocation peaks depend on the input shapes only, and tracemalloc
        # is costly to switch on, so only the first call per shape is traced
        shape = _curv_dot_shape(args) if is_curv_dot else None
        tracing_alloc = is_curv_dot and shape not in self.alloc_shapes
        if tracing_alloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            if tracing_alloc:
                self.alloc_shapes.add(shape)
                self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            child = self._children.pop()
            if self._children:
                self._children[-1] += duration
            self._identities_depth -= in_identities
            self.calls[key] += 1
            self.self_s[key] += duration - child
        if is_curv_dot:
            self._count_curv_dot(args[1], duration)
        elif key in _BLOCKS:
            space = args[0]
            self.block_keys.add((key, space.n, space.basis_map.tobytes()))
        elif outermost_check:
            for result in out if isinstance(out, list) else [out]:
                self.checks += 1
                margin = result.max_defect / result.tolerance
                self.worst_margin = max(self.worst_margin, margin)
        return out

    def _count_curv_dot(self, t, duration):
        t = getattr(t, "tensor", t)  # a CurvatureTensor acts through its tensor
        d, (r, k) = t.dim, t.valence
        # k slotwise contractions of d^(r+k+2) outputs, d multiply-adds each,
        # plus the output-slot composition for r = 1
        self.flops += 2 * k * d ** (r + k + 3) + (2 * d ** (k + 4) if r == 1 else 0)
        self.bytes_out += 8 * d ** (r + k + 2)
        self.curv_dot_ms.append(duration * 1e3)

    def _sum(self, table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def metrics(self) -> dict:
        """This pass's per-layer metrics, except the run-level ones."""
        calls, self_s = self.calls, self.self_s
        blocks = sum(calls[k] for k in _BLOCKS)
        return {
            "derivation.curv_dot.calls": calls["derivation.curv_dot"],
            "derivation.curv_dot.self_s": self_s["derivation.curv_dot"],
            "derivation.curv_dot.p50_ms": _percentile(self.curv_dot_ms, 50),
            "derivation.curv_dot.p99_ms": _percentile(self.curv_dot_ms, 99),
            "derivation.curv_dot.peak_alloc_mb": self.peak_alloc / 2**20,
            "derivation.flops_computed": self.flops,
            "derivation.bytes_out_computed": self.bytes_out,
            "derivation.operators.self_s": self_s["derivation.curvature_operators"],
            "curvature.kahler_check.calls": calls["curvature.check_kahler_symmetries"],
            "curvature.kahler_check.self_s": self_s["curvature.check_kahler_symmetries"],
            "curvature.blocks.calls": blocks,
            "curvature.blocks.self_s": sum(self_s[k] for k in _BLOCKS),
            "curvature.blocks.distinct_frac": len(self.block_keys) / blocks if blocks else 0.0,
            "curvature.self_s": self._sum(self_s, "curvature."),
            "tensors.construct.calls": calls["tensors.Tensor"],
            "tensors.construct.self_s": self_s["tensors.Tensor"],
            "tensors.max_abs.calls": calls["tensors.max_abs"],
            "tensors.max_abs.self_s": self_s["tensors.max_abs"],
            "identities.checks": self.checks,
            "identities.self_s": self._sum(self_s, "identities."),
            "identities.worst_margin": self.worst_margin,
            "spaces.calls": self._sum(calls, "spaces."),
            "spaces.self_s": self._sum(self_s, "spaces."),
            "profiles.solve.calls": calls["profiles.solve_profile"],
            "profiles.solve.self_s": self_s["profiles.solve_profile"],
            "profiles.report.self_s": self_s["profiles.profile_report"],
            "profiles.ab2.calls": calls["profiles.ab2"],
            "profiles.self_s": self._sum(self_s, "profiles."),
            "cli.calls": calls["cli.main"],
            "cli.self_s": self._sum(self_s, "cli."),
        }


def _curv_dot_shape(args):
    r, t = args[0], getattr(args[1], "tensor", args[1])
    return r.tensor.dim, t.dim, t.valence


def _percentile(values, q):
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Tracer:
    """Installs a span wrapper on every traced function while active.

    ``recorder`` is swapped for a fresh :class:`Recorder` per pass.
    """

    def __init__(self):
        self.recorder = Recorder()
        self._patches = Patches()

    def __enter__(self):
        for key, (owner, attr) in traced_functions().items():
            self._patches.wrap(owner, attr, functools.partial(self._wrapper, key))
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def _wrapper(self, key, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.recorder.span(key, fn, args, kwargs)

        return traced


def inject_curv_dot_fault(patches: Patches, size: float = 1e-3) -> None:
    """Perturb one entry of every ``curv_dot`` result by ``size``."""
    import qch.derivation
    from qch.tensors import Tensor

    def make(fn):
        @functools.wraps(fn)
        def faulty(*args, **kwargs):
            out = fn(*args, **kwargs)
            entries = out.entries.copy()
            entries.flat[0] += size
            return Tensor(out.dim, out.valence, entries)

        return faulty

    patches.wrap(qch.derivation, "curv_dot", make)
