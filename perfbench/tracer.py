"""Spans around the public functions of every mobex layer, for the traced run.

``Tracer.install`` wraps each public function of the layer modules and
rebinds it at every lookup site: module attributes, names imported into
other ``mobex`` modules, and default arguments.  Each call records a span
``(id, parent, name, start, end, op)`` in memory; the spans and a few
counters go to ``<prefix>-<pid>.spans`` when the process finishes.  Pool
workers forked inside a span inherit the open stack, so their spans hang
under that span; they append to their own file each time their stack
returns to the depth it had at the fork.  Nothing is installed in an
untraced run.

Generator functions are not wrapped: their work happens while the caller
consumes them, so it is counted as the caller's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import marshal
import os
import resource
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List

LAYERS = ("catalog", "graphs", "sprinkle", "series", "oracle", "dualchar",
          "penner", "clt", "parallel", "cli")


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.stack: List[int] = []
        self.op = None
        self._pid = os.getpid()
        self._next = 0
        self._fork_depth = None
        self._built = set()  # catalogs this process has built (computed counts)

    # -- spans -----------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, hook: Callable = None) -> Callable:
        errors = name.split(".")[0] + ".errors"
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next += 1
            sid = self._pid * 1_000_000_000 + self._next
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            except Exception:
                counts[errors] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.op))
                if self._fork_depth is not None and len(stack) == self._fork_depth:
                    self.flush()
        return wrapper

    def call(self, op_id: str, fn: Callable):
        """Run one benchmark operation under a root ``bench.op`` span."""
        self.op = op_id
        return self.wrap("bench.op", fn)()

    def flush(self) -> None:
        with open("%s-%d.spans" % (self.prefix, os.getpid()), "ab") as handle:
            marshal.dump((self.spans, dict(self.counts)), handle)
        self.spans.clear()
        self.counts.clear()

    def _after_fork(self) -> None:
        self._pid = os.getpid()
        self._next = 0
        self._fork_depth = len(self.stack)
        self.spans.clear()
        self.counts.clear()

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module("mobex." + layer) for layer in LAYERS}
        hooks = self._hooks(modules["catalog"])
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj)):
                    continue
                name = "%s.%s" % (layer, attr)
                wrapped[obj] = self.wrap(name, obj, hooks.get(name))
        coupling = modules["series"].CouplingSeries
        for attr in ("exp", "log"):
            setattr(coupling, attr,
                    self.wrap("series.CouplingSeries." + attr, getattr(coupling, attr)))
        for name, module in list(sys.modules.items()):
            if name != "mobex" and not name.startswith("mobex."):
                continue
            for attr, obj in list(vars(module).items()):
                if _hashable(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
                if inspect.isfunction(obj) and obj.__defaults__:
                    obj.__defaults__ = tuple(
                        wrapped[d] if _hashable(d) and d in wrapped else d
                        for d in obj.__defaults__)
        os.register_at_fork(after_in_child=self._after_fork)

    # -- computed counts -----------------------------------------------------------

    def _hooks(self, catalog) -> Dict[str, Callable]:
        counts = self.counts
        caches = (catalog._connected_catalog, catalog._full_catalog, catalog._ribbon_catalog)

        def hits() -> int:
            return sum(cache.cache_info().hits for cache in caches)

        def bound(fn, args, kwargs):
            params = inspect.signature(fn).bind(*args, **kwargs)
            params.apply_defaults()
            return params.arguments

        def new_catalog(key, n_classes: int) -> None:
            if key in self._built:
                return
            self._built.add(key)
            counts["catalog.matchings"] += double_factorial(sum(key[-1]) - 1)
            counts["catalog.classes"] += n_classes

        def enumerate_hook(fn, args, kwargs):
            before = hits()
            result = fn(*args, **kwargs)
            counts["catalog.cache_hits"] += hits() - before
            arguments = bound(fn, args, kwargs)
            key = catalog.profile_key(arguments["profile"])
            if arguments["connected_only"]:
                new_catalog(("moebius", key), len(result))
            else:
                def cached(part):
                    return fn(list(part), half_edge_budget=arguments["half_edge_budget"])
                for part in _connected_parts(catalog, cached, key):
                    new_catalog(("moebius", part), len(cached(part)))
            return result

        def ribbon_hook(fn, args, kwargs):
            before = hits()
            result = fn(*args, **kwargs)
            counts["catalog.cache_hits"] += hits() - before
            key = catalog.profile_key(bound(fn, args, kwargs)["profile"])
            new_catalog(("ribbon", key), len(result))
            return result

        def labelled_hook(fn, args, kwargs):
            arguments = bound(fn, args, kwargs)
            key = catalog.profile_key(arguments["profile"])
            n = sum(key)
            twist_patterns = 2 ** (n // 2) if arguments["mode"] == "moebius" else 1
            counts["catalog.labelled_gluings"] += double_factorial(n - 1) * twist_patterns
            return fn(*args, **kwargs)

        def bruteforce_hook(fn, args, kwargs):
            arguments = bound(fn, args, kwargs)
            counts["sprinkle.assignments"] += arguments["beta"] ** arguments["graph"].n_edges
            return fn(*args, **kwargs)

        def mc_hook(fn, args, kwargs):
            counts["oracle.mc.samples"] += bound(fn, args, kwargs)["samples"]
            return fn(*args, **kwargs)

        def pmap_hook(fn, args, kwargs):
            counts["parallel.pmap.items"] += len(bound(fn, args, kwargs)["items"])
            before = _cpu_children()
            try:
                return fn(*args, **kwargs)
            finally:
                counts["parallel.pmap.child_cpu_s"] += _cpu_children() - before

        return {"catalog.enumerate_graphs": enumerate_hook,
                "catalog.ribbon_classes": ribbon_hook,
                "catalog.labeled_pairing_sum": labelled_hook,
                "sprinkle.mu_bruteforce": bruteforce_hook,
                "oracle.mc_estimate": mc_hook,
                "parallel.pmap": pmap_hook}


def _hashable(obj) -> bool:
    try:
        hash(obj)
    except TypeError:
        return False
    return True


def _connected_parts(catalog, connected_catalog, key) -> set:
    """Connected profiles that building the full catalog of ``key`` visited.

    Follows the composition in ``catalog._full_catalog``, which descends
    into the rest of a split only when the part has classes.  Every
    profile asked for here is already cached by that build.
    """
    parts = set()

    def visit(remaining):
        for part, rest in catalog._subprofiles(remaining):
            parts.add(part)
            if rest and connected_catalog(part):
                visit(rest)

    visit(key)
    return parts


# -- analysis (benchmark process) -------------------------------------------------

def load(paths: Iterable[str]):
    """All spans and summed counters from the span files of one round."""
    spans: List[tuple] = []
    counts: Dict[str, float] = defaultdict(float)
    for path in paths:
        with open(path, "rb") as handle:
            while True:
                try:
                    chunk_spans, chunk_counts = marshal.load(handle)
                except EOFError:
                    break
                spans.extend(chunk_spans)
                for key, value in chunk_counts.items():
                    counts[key] += value
    return spans, counts


def self_times(spans: List[tuple]):
    """Per span name: summed self time (duration minus the union of its
    children's intervals within it), summed duration and call count."""
    children = defaultdict(list)
    for sid, parent, name, start, end, op in spans:
        if parent is not None:
            children[parent].append((start, end))
    self_s: Dict[str, float] = defaultdict(float)
    total_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for sid, parent, name, start, end, op in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        self_s[name] += (end - start) - covered
        total_s[name] += end - start
        calls[name] += 1
    return self_s, total_s, calls
