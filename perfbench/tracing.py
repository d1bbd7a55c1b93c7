"""Spans around the public functions of each subdfo layer, timed from outside.

The benchmark does not edit the library: it replaces each function named in
``LAYERS`` by a timing wrapper *at the module attribute its caller looks it
up through*, and puts the original back afterwards. Before patching, every
name is checked to still exist and to still be referenced by each listed
caller, so a refactor that inlines or renames a function stops the traced run
instead of silently reporting zero time for that layer.
"""

import contextlib
import importlib
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from subdfo import exceptions as _exc

# Exceptions that count as a layer failure. The solvers' private budget and
# time signals pass through wrappers too but are not failures.
SUBDFO_ERRORS = tuple(
    obj
    for obj in vars(_exc).values()
    if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == _exc.__name__
)


class MissingLayerError(RuntimeError):
    """A wrapped name no longer exists at its call site."""


# (metric key, module holding the call-site binding, attribute, callers).
# A caller is "module:qualname"; the attribute name must appear among the
# names its bytecode looks up, which is how the call site reaches the wrapper.
LAYERS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("numerics.orthonormal_basis", "subdfo.solvers", "orthonormal_basis",
     ("subdfo.solvers:run_rsdfoq", "subdfo.solvers:add_orthogonal_points")),
    ("numerics.solve_saddle_system", "subdfo.interp", "solve_saddle_system",
     ("subdfo.interp:build_mfn_model",)),
    ("interp.build_mfn_model", "subdfo.solvers", "build_mfn_model",
     ("subdfo.solvers:run_rsdfoq",)),
    ("interp.lagrange_from_coords", "subdfo.solvers", "lagrange_from_coords",
     ("subdfo.solvers:remove_single_point",)),
    ("interp.model_criticality", "subdfo.solvers", "model_criticality",
     ("subdfo.solvers:run_rsdfoq", "subdfo.solvers:_run_prototype")),
    ("interp.build_full_quadratic_model", "subdfo.solvers", "build_full_quadratic_model",
     ("subdfo.solvers:_run_prototype",)),
    ("trs.solve_trs", "subdfo.solvers", "solve_trs",
     ("subdfo.solvers:run_rsdfoq", "subdfo.solvers:_run_prototype")),
    ("solvers.remove_multiple_points", "subdfo.solvers", "remove_multiple_points",
     ("subdfo.solvers:run_rsdfoq",)),
    ("solvers.remove_single_point", "subdfo.solvers", "remove_single_point",
     ("subdfo.solvers:run_rsdfoq", "subdfo.solvers:remove_multiple_points")),
    ("solvers.add_orthogonal_points", "subdfo.solvers", "add_orthogonal_points",
     ("subdfo.solvers:run_rsdfoq",)),
    # The solvers bind ``problem.objective`` once per run, so the method is
    # wrapped on the class.
    ("problems.objective", "subdfo.problems:Problem", "objective",
     ("subdfo.solvers:_TracedObjective.__init__",)),
    ("sketch.make_sketch", "subdfo.solvers", "make_sketch",
     ("subdfo.solvers:_run_prototype",)),
    # Called by the benchmark itself, as ``subdfo bench`` / ``subdfo profile`` do.
    ("bench.write_store", "subdfo.bench", "write_store", ()),
    ("bench.profiles_from_records", "subdfo.bench", "profiles_from_records", ()),
)

SOLVE_SPAN = "solvers.loop"


def _resolve(path: str):
    """Object named by "module" or "module:attr.attr"."""
    mod_name, _, attr_path = path.partition(":")
    obj = importlib.import_module(mod_name)
    for part in filter(None, attr_path.split(".")):
        if not hasattr(obj, part):
            raise MissingLayerError(f"{path}: {part!r} not found")
        obj = getattr(obj, part)
    return obj


def check_call_sites(layers=LAYERS):
    """Raise MissingLayerError unless every wrapped name is still in use."""
    for key, owner, attr, callers in layers:
        if not hasattr(_resolve(owner), attr):
            raise MissingLayerError(f"{key}: {owner} has no attribute {attr!r}")
        for caller in callers:
            code = getattr(_resolve(caller), "__code__", None)
            if code is None or attr not in code.co_names:
                raise MissingLayerError(f"{key}: {caller} no longer calls {attr!r}")


class Tracer:
    """In-memory spans ``(name, start, end, parent, solve_id, failed)``.

    A span's slot is reserved when it opens, so children can name it as
    parent, and filled with a tuple of scalars when it closes; such tuples
    drop out of the garbage collector's tracking, which keeps collection
    pauses out of the traced timings.
    """

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.counts: Counter = Counter()
        self.solve_id = -1
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(idx)
            failed = False
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except SUBDFO_ERRORS:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.solve_id, failed)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    @contextlib.contextmanager
    def solve(self, solve_id: int):
        """Root span of one solve; every wrapped call inside it is its child."""
        self.solve_id = solve_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (SOLVE_SPAN, start, end, -1, solve_id, False)
            self.solve_id = -1

    def _count_trs_kind(self, result):
        self.counts[f"trs.kind.{result.kind}"] += 1

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer's call-site binding with a wrapper, then restore."""
        check_call_sites()
        saved = []
        try:
            for key, owner, attr, _callers in LAYERS:
                target = _resolve(owner)
                original = getattr(target, attr)
                hook = self._count_trs_kind if key == "trs.solve_trs" else None
                saved.append((target, attr, original))
                setattr(target, attr, self.wrap(key, original, hook))
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)


def layer_table(spans: Sequence[tuple], self_s: Sequence[float], keys: Sequence[str]) -> Dict[str, float]:
    """Per-key ``calls``, ``self_s`` and ``failed`` summed over ``spans``."""
    table = {}
    for key in keys:
        table[f"{key}.calls"] = 0
        table[f"{key}.self_s"] = 0.0
        table[f"{key}.failed"] = 0
    for span, st in zip(spans, self_s):
        name = span[0]
        table[f"{name}.calls"] += 1
        table[f"{name}.self_s"] += st
        table[f"{name}.failed"] += int(span[5])
    return table
