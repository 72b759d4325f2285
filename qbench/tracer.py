"""Per-layer tracing from outside the program.

The tracer wraps public entry points of the qmink modules, found by name at
run time, and measures calls and self time (inclusive time minus the time
spent in wrapped callees).  An entry point that no longer exists is
reported as absent instead of failing the run.  Scalar arithmetic runs
hundreds of thousands of times per batch, so it is only aggregated; every
other wrapped call also keeps a span (item, id, parent id, name, start,
end) in memory, written out by ``write_spans`` after the batch.

Caches are discovered by scanning module attributes for ``cache_info``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import time
import types

MODULES = ("scalars", "algebra", "matrices", "derivatives", "lorentz",
           "waves", "surface", "cli")

# (metric prefix, module, attribute path, keep spans)
ENTRY_POINTS = (
    ("scalars.mul", "scalars", "Scalar.__mul__", False),
    ("scalars.add", "scalars", "Scalar.__add__", False),   # - goes through +
    ("scalars.inverse", "scalars", "Scalar.inverse", False),
    ("algebra.mul", "algebra", "Element.__mul__", True),
    ("algebra.localized", "algebra", "Localized.__init__", True),
    ("algebra.div_central", "algebra", "div_central", True),
    ("algebra.to_pbw_x", "algebra", "to_pbw_x", True),
    ("algebra.pbw_mul", "algebra", "pbw_mul", True),
    # * of whatever matrix type l_matrix returns, so a merged type is followed
    ("matrices.matmul", "matrices", "<type of l_matrix>.__mul__", True),
    ("matrices.l_pow_closed", "matrices", "l_pow_closed", True),
    ("matrices.f_of_l0", "matrices", "f_of_l0", True),
    ("derivatives.grad_closed", "derivatives", "grad_closed", True),
    ("derivatives.grad_oracle", "derivatives", "grad_oracle", True),
    ("derivatives.contract_d_alembert", "derivatives", "contract_d_alembert",
     True),
    ("waves.verify_massive", "waves", "verify_massive", True),
    ("waves.verify_massless", "waves", "verify_massless", True),
    ("waves.verify_klein_gordon", "waves", "verify_klein_gordon", True),
    ("waves.central_alpha_expansion", "waves", "central_alpha_expansion",
     True),
    ("waves.series_mul", "waves", "TruncatedSeries.__mul__", True),
    ("lorentz.verify_structure", "lorentz", "verify_structure", True),
    ("lorentz.repmul", "lorentz", "RepMatrix.__mul__", True),
    ("surface.parse", "surface", "parse_element", True),
    ("surface.print", "surface", "element_to_str", True),
    ("surface.to_json", "surface", "element_to_json", True),
    ("surface.from_json", "surface", "element_from_json", True),
    ("cli.main", "cli", "main", True),
)

# Caches named in the benchmark's metric list; others found are reported too.
CACHES = (
    "algebra._pbw_tail_gen", "algebra._alpha_even_pow",
    "algebra._xi_power_pbw", "algebra._central_pbw",
    "derivatives._l_entries", "derivatives._oracle_word",
    "derivatives._pi_nabla", "derivatives._pi_weighted",
    "lorentz.rmatrix_half", "lorentz.rmatrices_fourvector",
    "matrices.b_matrix", "matrices.l_matrix_spinor", "matrices.l_matrix",
    "matrices.chebyshev_s", "matrices.x_upper",
)


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for prefix, _, _, _ in ENTRY_POINTS:
        out += [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]
    out.append(("algebra.div_central.exact_ratio", "ratio"))
    for name in CACHES:
        out += [(f"cache.{name}.hit_ratio", "ratio"),
                (f"cache.{name}.size", "count")]
    out.append(("trace.overhead_s", "s"))
    return out


def _modules():
    """The qmink modules that exist; entry points of a missing one are absent."""
    mods = {}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module(f"qmink.{name}")
        except ModuleNotFoundError:
            pass
    return mods


def _resolve(mods, module, path):
    """(owner, attribute name, function) or None when the name is gone."""
    mod = mods.get(module)
    if mod is None:
        return None
    owner_path, _, attr = path.rpartition(".")
    if owner_path == "<type of l_matrix>":
        l_matrix = getattr(mod, "l_matrix", None)
        owner = type(l_matrix("x0")) if l_matrix else None
    elif owner_path:
        owner = getattr(mod, owner_path, None)
    else:
        owner = mod
    fn = getattr(owner, attr, None) if owner is not None else None
    if fn is None or (owner_path and attr not in vars(owner)):
        return None
    return owner, attr, fn


def cache_snapshot(mods):
    """{module.attr: (hits, misses, size)} for every attribute with
    cache_info in the given modules."""
    out = {}
    for mname, mod in mods.items():
        for attr, obj in vars(mod).items():
            info = getattr(obj, "cache_info", None)
            if callable(info):
                ci = info()
                out[f"{mname}.{attr}"] = (ci.hits, ci.misses, ci.currsize)
    return out


class Tracer:
    """Wraps the entry points while installed; collects counts and spans."""

    def __init__(self):
        self.mods = _modules()
        self.stats = {}     # prefix -> [calls, self s, raised]
        self.absent = []
        self.spans = []     # (item, id, parent id, prefix, start, end)
        self.item = -1
        self._stack = []    # [child time] per open wrapped call
        self._span_stack = []
        self._ids = itertools.count(1)
        self._undo = []

    def install(self):
        for prefix, module, path, keep in ENTRY_POINTS:
            found = _resolve(self.mods, module, path)
            if found is None:
                self.absent.append(prefix)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(prefix, fn, keep)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            if isinstance(owner, types.ModuleType):
                self._rebind(fn, wrapper)
        return self

    def _rebind(self, fn, wrapper):
        """Point every other module-level name and default argument that
        holds the function at the wrapper."""
        for mod in self.mods.values():
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
        for func in self._functions():
            defaults = func.__defaults__
            if defaults and any(d is fn for d in defaults):
                self._undo.append((func, "__defaults__", defaults))
                func.__defaults__ = tuple(wrapper if d is fn else d
                                          for d in defaults)

    def _functions(self):
        for mod in self.mods.values():
            for obj in vars(mod).values():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    yield from (v for v in vars(obj).values()
                                if hasattr(v, "__defaults__"))
                elif hasattr(obj, "__defaults__"):
                    yield obj

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, prefix, fn, keep_spans):
        rec = self.stats.setdefault(prefix, [0, 0.0, 0])
        stack, span_stack, spans = self._stack, self._span_stack, self.spans
        ids, clock = self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            if keep_spans:
                sid = next(ids)
                parent = span_stack[-1] if span_stack else 0
                span_stack.append(sid)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                rec[2] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                rec[0] += 1
                rec[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep_spans:
                    span_stack.pop()
                    spans.append((self.item, sid, parent, prefix, t0, t1))
        return wrapper

    def layer_metrics(self, caches_before, caches_after):
        """Per-layer metric values (without trace.overhead_s)."""
        out = {}
        for prefix, _, _, _ in ENTRY_POINTS:
            calls, self_s, _ = self.stats.get(prefix, (0, 0.0, 0))
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.self_s"] = self_s
        calls, _, raised = self.stats.get("algebra.div_central", (0, 0.0, 0))
        out["algebra.div_central.exact_ratio"] = \
            (calls - raised) / calls if calls else 0.0
        for name, (hits, misses, size) in caches_after.items():
            h0, m0, _ = caches_before.get(name, (0, 0, 0))
            lookups = hits - h0 + misses - m0
            out[f"cache.{name}.hit_ratio"] = (hits - h0) / lookups if lookups else 0.0
            out[f"cache.{name}.size"] = size
        return out

    def write_spans(self, path):
        """Spans as gzipped JSON lines: item, id, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for item, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([item, sid, parent, name, t0, t1]) + "\n")
