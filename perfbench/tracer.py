"""Per-layer spans for the traced benchmark run, recorded from outside mmlab.

Each layer is a set of mmlab functions or methods found by attribute
lookup.  `Tracer.install` replaces every module attribute (or class
attribute, for methods) that holds one of them with a wrapper, and
`uninstall` puts the originals back, so untraced code runs unwrapped.  A
wrapper keeps a stack of open spans: a call's self time is its duration
minus the time of wrapped calls made inside it, so the self times of all
layers add up to the time spent inside any of them.  Totals stay in memory
until the caller takes them.

A name that no longer exists in mmlab (a helper a later change removed) is
listed as absent and its metrics read 0.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass


def _size(x):
    return len(x) if hasattr(x, "__len__") else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(index, name):
    """Rows of a value array passed 1-d (one row) or 2-d."""
    def count(args, kwargs, result):
        shape = getattr(_arg(args, kwargs, index, name), "shape", None)
        return {"rows": 1 if shape is None or len(shape) < 2 else shape[0]}
    return count


def _pairs(args, kwargs, result):
    """Distance pairs of a (self, rows, cols, ...) method."""
    return {"pairs": _size(_arg(args, kwargs, 1, "rows")) * _size(_arg(args, kwargs, 2, "cols"))}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _save_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _emd_variables(args, kwargs, result):
    pair = _arg(args, kwargs, 1, "pair")
    return {"variables": int((pair.mu1 > 0).sum()) * int((pair.mu2 > 0).sum())}


@dataclass(frozen=True)
class Target:
    layer: str        # metric prefix, e.g. "observable.best_const_rows"
    module: str       # module that defines the function or class
    attr: str         # "name" or "Class.method"
    counters: object = None  # (args, kwargs, result) -> {counter: amount}


CLI_COMMANDS = ("generate", "validate", "alpha", "emd", "obsdist", "tail",
                "leader", "ramsey", "replay")
GENERATORS = ("build_space", "hamming_cube", "hamming_cube_sampled", "symmetric_group",
              "symmetric_group_sampled", "sphere_sampled", "so_n_sampled",
              "sl2_word_metric", "product_space")

GENERATOR_TARGETS = tuple(Target("generators.build", "mmlab.generators", g)
                          for g in GENERATORS)

TARGETS = GENERATOR_TARGETS + (
    Target("observable.obs_distance", "mmlab.observable", "obs_distance"),
    Target("observable.candidate_couplings", "mmlab.observable", "_candidate_couplings",
           lambda a, k, r: {"count": len(r)}),
    Target("observable.lipschitz_extremes", "mmlab.observable", "lipschitz_extremes",
           lambda a, k, r: {"members": len(r)}),
    Target("observable.family_hausdorff", "mmlab.observable", "_family_hausdorff"),
    Target("observable.best_const_rows", "mmlab.observable", "_best_const_rows",
           _rows(1, "vals")),
    Target("observable.me1_rows", "mmlab.observable", "_me1_rows", _rows(1, "gaps")),
    Target("spaces.thickened", "mmlab.spaces", "FiniteMMSpace.thickened"),
    Target("spaces.within_block", "mmlab.spaces", "FiniteMMSpace._within_block", _pairs),
    Target("spaces.pairwise", "mmlab.spaces", "FiniteMMSpace.pairwise", _pairs),
    Target("spaces.alpha_exact", "mmlab.spaces", "alpha_exact",
           lambda a, k, r: {"subsets": 2 ** _arg(a, k, 0, "space").n}),
    Target("spaces.json", "mmlab.spaces", "space_to_json"),
    Target("spaces.json", "mmlab.spaces", "space_from_json"),
    Target("spaces.json", "mmlab.spaces", "save_space", _save_bytes),
    Target("spaces.json", "mmlab.spaces", "load_space", _file_bytes),
    Target("spaces.json", "mmlab.cli", "_read_json", _file_bytes),
    Target("spaces.json", "mmlab.cli", "_json_text", _text_bytes),
    Target("concentration.alpha_lower_bound", "mmlab.concentration", "alpha_lower_bound"),
    Target("concentration.tail_check", "mmlab.concentration", "tail_check"),
    Target("concentration.hamming_cube_alpha", "mmlab.concentration", "hamming_cube_alpha"),
    Target("concentration.sphere_cap_alpha", "mmlab.concentration", "sphere_cap_alpha"),
    Target("concentration.majority_ball_upper", "mmlab.concentration",
           "majority_ball_upper"),
    Target("transport.emd", "mmlab.transport", "emd", _emd_variables),
) + tuple(Target(f"cli.command.{c}", "mmlab.cli", f"_cmd_{c}") for c in CLI_COMMANDS)

# Reported counters per layer; every layer also reports its self time `.s`.
# Set-up figures (cli.import_s, cli.import_scipy_s) and the trace's own
# accounting (trace.*) are added by the caller.
COUNTERS = {
    "observable.obs_distance": (),
    "observable.candidate_couplings": ("count",),
    "observable.lipschitz_extremes": ("members",),
    "observable.family_hausdorff": ("calls",),
    "observable.best_const_rows": ("rows",),
    "observable.me1_rows": ("rows",),
    "spaces.thickened": ("calls",),
    "spaces.within_block": ("calls", "pairs"),
    "spaces.pairwise": ("pairs",),
    "spaces.alpha_exact": ("subsets",),
    "spaces.json": ("bytes",),
    "concentration.alpha_lower_bound": ("calls",),
    "concentration.tail_check": ("calls", "failed"),
    "concentration.hamming_cube_alpha": ("calls",),
    "concentration.sphere_cap_alpha": ("calls",),
    "concentration.majority_ball_upper": (),
    "transport.emd": ("variables",),
    "generators.build": (),
    **{f"cli.command.{c}": () for c in CLI_COMMANDS},
}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.absent = []
        self._open = []      # child time accumulated by each open span
        self._patches = []   # (owner, attribute, original)

    def install(self, targets):
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "mmlab" or name.startswith("mmlab.")]
        for target in targets:
            owner = sys.modules.get(target.module)
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                if target.attr not in self.absent:
                    self.absent.append(target.attr)
                continue
            wrapper = self._wrap(target, original)
            if path:
                self._patch(owner, attr, wrapper)
                continue
            for module in loaded:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def take(self):
        """Totals since the last take, as {layer: {counter: amount}}."""
        out, self.stats = self.stats, {}
        return out

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open.append(0.0)
            t0 = time.perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                dt = time.perf_counter() - t0
                inner = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += dt
                st = tracer.stats.setdefault(target.layer, {})
                st["s"] = st.get("s", 0.0) + dt - inner
                st["calls"] = st.get("calls", 0) + 1
                st["failed"] = st.get("failed", 0) + failed
                if target.counters and not failed:
                    for key, amount in target.counters(args, kwargs, result).items():
                        st[key] = st.get(key, 0) + amount
        return wrapper


def merge(into, stats):
    """Add one set of layer totals into another."""
    for layer, counters in stats.items():
        dst = into.setdefault(layer, {})
        for key, amount in counters.items():
            dst[key] = dst.get(key, 0) + amount
    return into


def self_time(stats):
    return sum(c.get("s", 0.0) for c in stats.values())


def timed_import(name):
    """Import a module; return it with the seconds the import took and the
    part of them spent importing scipy."""
    real = builtins.__import__
    scipy_s = 0.0
    depth = 0

    def hook(mod, globals=None, locals=None, fromlist=(), level=0):
        nonlocal scipy_s, depth
        if level or depth or mod.partition(".")[0] != "scipy":
            return real(mod, globals, locals, fromlist, level)
        depth += 1
        t0 = time.perf_counter()
        try:
            return real(mod, globals, locals, fromlist, level)
        finally:
            depth -= 1
            scipy_s += time.perf_counter() - t0

    builtins.__import__ = hook
    t0 = time.perf_counter()
    try:
        module = importlib.import_module(name)
    finally:
        builtins.__import__ = real
    return module, time.perf_counter() - t0, scipy_s
