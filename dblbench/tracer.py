"""Spans and counters around the public functions of dbl's layers.

The benchmark measures the library from outside: ``Tracer.install()``
replaces, in every loaded ``dbl`` module, each public function and method
defined in a layer module with a wrapper, and ``uninstall()`` puts the
originals back.  While the tracer is active:

* every call of a wrapped function is counted;
* a call that crosses into a layer from another module, or from the
  benchmark, is also recorded as a span: the wrapped function, start, end,
  parent span and case id.  Calls inside one module record no span.

Spans stay in arrays in memory until ``metrics()`` or ``write()`` reads them
after the run.  A span's self time is its duration minus that of its child
spans; since spans nest, the self times of all spans add up to the root
span, which covers the benchmark's own case loop (``driver.self_s``).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

LAYERS = ("normvalue", "scalars", "spaces", "functions", "spectrum", "cech", "intlinalg")
DRIVER = "driver"

# Protocol methods that other modules call through operators or the type.
_DUNDERS = frozenset(
    {
        "__init__", "__post_init__", "__call__", "__eq__", "__mul__", "__pow__",
        "__add__", "__sub__", "__lt__", "__le__", "__gt__", "__ge__",
    }
)

# Counters summed over every call (not only crossing calls) of the named
# functions; names are "<layer>.<qualname>".
CALL_COUNTERS = {
    "normvalue.construct.calls": ("normvalue.NormValue.from_fraction", "normvalue.NormValue.from_pow"),
    "normvalue.mul.calls": ("normvalue.NormValue.__mul__",),
    "normvalue.compare.calls": ("normvalue.NormValue.compare",),
    "scalars.norm.calls": ("scalars.RingDescriptor.norm",),
    "spaces.built": ("spaces.FiniteSpace.__init__",),
    "spaces.inclusion_map.calls": ("spaces.inclusion_map",),
    "spaces.is_continuous.calls": ("spaces.PointMap.is_continuous",),
    "functions.restrict.calls": ("functions.restrict",),
    "functions.sup_norm.calls": ("functions.CfinFunction.sup_norm",),
    "spectrum.base_eval.calls": ("spectrum.base_eval",),
    "spectrum.g_split.calls": ("spectrum.g_split",),
    "cech.complexes_built": ("cech.ChainComplex.__init__",),
    "intlinalg.snf.calls": ("intlinalg.smith_normal_form",),
    "intlinalg.rank.calls": ("intlinalg.rank_q", "intlinalg.rank_mod_p"),
}

# Counters a hook reads off a call's arguments or result.
HOOK_COUNTERS = (
    "normvalue.factor_int.max_bits",
    "spaces.opens_total",
    "cech.max_term_rank",
    "intlinalg.max_cells",
    "intlinalg.max_entry_bits",
)


def _cells(m) -> int:
    return len(m) * (len(m[0]) if m else 0)


def _entry_bits(*matrices) -> int:
    return max(
        (abs(x).bit_length() for m in matrices for row in m for x in row), default=0
    )


def _plain_function(obj) -> bool:
    """A function whose work happens during the call (not a generator)."""
    if isinstance(obj, functools._lru_cache_wrapper):
        return True
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


class Tracer:
    """Spans and counters for one traced run; see the module docstring."""

    def __init__(self):
        self.names = [DRIVER]  # function id -> "<layer>.<qualname>"
        self.calls = [0]  # function id -> calls while active
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_case = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.case = -1
        self.active = False
        self.hooked = dict.fromkeys(HOOK_COUNTERS, 0)
        self._undo = []
        self._factor_int = None
        self._cache_start = self._cache_end = None

    # -- spans ------------------------------------------------------------

    def open(self, fid: int) -> int:
        i = len(self.span_fn)
        self.span_fn.append(fid)
        self.span_parent.append(self.stack[-1])
        self.span_case.append(self.case)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.span_end[i] = time.perf_counter()
        self.stack.pop()

    def start(self):
        """Activate counting and open the root span around the case loop."""
        self._cache_start = self._factor_int.cache_info()
        self.active = True
        self.open(0)

    def stop(self):
        self.close(0)
        self.active = False
        self._cache_end = self._factor_int.cache_info()

    # -- installing wrappers ---------------------------------------------------

    def _wrap(self, fn, name: str, module: str, depth: int = 1, hook=None):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        tracer, calls, getframe = self, self.calls, sys._getframe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[fid] += 1
            if getframe(depth).f_globals.get("__name__") == module:
                result = fn(*args, **kwargs)
            else:
                i = tracer.open(fid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(i)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _hooks(self):
        h = self.hooked

        def raise_to(key, value):
            if value > h[key]:
                h[key] = value

        def opens_built(args, _):
            h["spaces.opens_total"] += len(args[0].__dict__.get("opens", ()))

        def opens_listed(_, result):
            h["spaces.opens_total"] += len(result)

        return {
            "normvalue.factor_int": lambda a, _: raise_to(
                "normvalue.factor_int.max_bits", a[0].bit_length()
            ),
            "spaces.FiniteSpace.__init__": opens_built,
            "spaces.FiniteSpace.opens": opens_listed,
            "cech.build_tate_cech": lambda _, r: raise_to(
                "cech.max_term_rank", max(map(len, r.terms))
            ),
            "intlinalg.smith_normal_form": lambda a, r: (
                raise_to("intlinalg.max_cells", _cells(a[0])),
                raise_to("intlinalg.max_entry_bits", _entry_bits(a[0], *r)),
            ),
            "intlinalg.rank_q": lambda a, _: raise_to("intlinalg.max_cells", _cells(a[0])),
            "intlinalg.rank_mod_p": lambda a, _: raise_to(
                "intlinalg.max_cells", _cells(a[0])
            ),
        }

    def install(self):
        """Wrap every layer's public functions, in every loaded dbl module."""
        import dbl.normvalue

        for layer in LAYERS:
            __import__(f"dbl.{layer}")
        self._factor_int = dbl.normvalue.factor_int
        hooks = self._hooks()
        replaced = {}  # id(original) -> wrapper
        for layer in LAYERS:
            modname = f"dbl.{layer}"
            module = sys.modules[modname]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isclass(obj):
                    self._install_class(obj, layer, modname, hooks)
                elif _plain_function(obj):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self._wrap(obj, name, modname, hook=hooks.get(name))
        # Modules hold their own references to functions they import.
        for modname, module in list(sys.modules.items()):
            if modname != "dbl" and not modname.startswith("dbl."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._set(module, attr, wrapper)

    def _install_class(self, cls, layer, modname, hooks):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, staticmethod):
                fn = self._wrap(obj.__func__, name, modname, hook=hooks.get(name))
                self._set(cls, attr, staticmethod(fn))
            elif isinstance(obj, functools.cached_property):
                # cached_property.__get__ sits between the caller and func
                fn = self._wrap(obj.func, name, modname, depth=2, hook=hooks.get(name))
                prop = functools.cached_property(fn)
                prop.__set_name__(cls, attr)
                self._set(cls, attr, prop)
            elif _plain_function(obj):
                self._set(cls, attr, self._wrap(obj, name, modname, hook=hooks.get(name)))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ------------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per layer, and of the root span, in seconds."""
        n = len(self.span_fn)
        start, end, parent = self.span_start, self.span_end, self.span_parent
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out = dict.fromkeys((DRIVER,) + LAYERS, 0.0)
        for i in range(n):
            out[layer_of[self.span_fn[i]]] += end[i] - start[i] - child[i]
        return out

    def wall(self) -> float:
        return self.span_end[0] - self.span_start[0]

    def metrics(self) -> dict:
        """Per-layer metrics of the traced run, by name."""
        out = {}
        for layer, seconds in self.self_times().items():
            out[f"{layer}.self_s"] = seconds
        spans = dict.fromkeys(LAYERS, 0)
        for fid in self.span_fn[1:]:
            spans[self.names[fid].split(".", 1)[0]] += 1
        for layer in LAYERS:
            out[f"{layer}.calls"] = spans[layer]
        by_name = dict(zip(self.names, self.calls))
        for counter, names in CALL_COUNTERS.items():
            out[counter] = sum(by_name.get(name, 0) for name in names)
        out.update(self.hooked)
        hits = self._cache_end.hits - self._cache_start.hits
        misses = self._cache_end.misses - self._cache_start.misses
        out["normvalue.factor_int.misses"] = misses
        out["normvalue.factor_int.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["trace.spans"] = len(self.span_fn)
        return out

    def write(self, directory: str, stem: str):
        """Write the spans: a JSON header and the raw arrays, in field order."""
        os.makedirs(directory, exist_ok=True)
        fields = ("span_fn", "span_parent", "span_case", "span_start", "span_end")
        header = {
            "spans": len(self.span_fn),
            "names": self.names,
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "byteorder": sys.byteorder,
        }
        with open(os.path.join(directory, f"{stem}.spans.json"), "w") as fh:
            json.dump(header, fh)
        with open(os.path.join(directory, f"{stem}.spans.bin"), "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
