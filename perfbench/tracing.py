"""Spans and counters around bergman's public functions, from outside.

A wrapper replaces the function at every module (or class) attribute
that holds it, so calls through any import site are seen: for example
``enumerate_group_elements`` is bound in both ``bergman.groups`` and
``bergman.metric``.  Spans are kept in memory as
``[name, start, end, parent, run]`` and written out at the end.  Times
are wall-clock seconds.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict


def _count_enumerate(counts, args, kwargs, result):
    group = args[0] if args else kwargs["group"]
    counts["groups.enumerate.elements"] += len(result.elements)
    counts["groups.enumerate.expanded"] += result.expanded
    counts["groups.enumerate.attempts"] += (
        result.expanded * len(group.symmetrized_generators()))
    counts["groups.enumerate.budget_hits"] += not result.exhaustive_flag


def _count_bundle(counts, args, kwargs, result):
    counts["kernel.bundle.terms"] += len(args[0] if args else kwargs["elements"])


# (span name, module, attribute, counter hook); a dotted attribute names
# a method on a class.  Names in COUNT_ONLY count calls without spans.
TARGETS = (
    ("groups.enumerate", "bergman.groups", "enumerate_group_elements",
     _count_enumerate),
    ("uhp.apply_moebius", "bergman.uhp", "apply_moebius", None),
    ("kernel.bundle", "bergman.kernel", "poincare_weight0_bundle",
     _count_bundle),
    ("metric.ratio_scan", "bergman.metric", "ratio_scan", None),
    ("metric.derivatives", "bergman.metric", "kernel_derivatives", None),
    ("forms.gram", "bergman.forms", "petersson_gram", None),
    ("forms.values", "bergman.forms", "CuspFormBasis.values", None),
    ("forms.orthonormal", "bergman.forms", "orthonormal_basis", None),
    ("forms.bundle", "bergman.forms", "basis_weight0_bundle", None),
    ("forms.load", "bergman.forms", "load_forms", None),
    ("symprod.scan", "bergman.symprod", "volume_ratio_scan", None),
    ("symprod.fs_formula", "bergman.symprod", "fs_form_formula", None),
    ("symprod.potential", "bergman.symprod", "nested_log_potential", None),
    ("symprod.vanishing_subspace", "bergman.symprod", "vanishing_subspace",
     None),
    ("cli.main", "bergman.cli", "main", None),
)
COUNT_ONLY = {"uhp.apply_moebius"}


class Tracer:
    """Span recorder; ``run`` tags the spans of one pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.run = 0
        self._stack = []
        self._installed = []

    def _span(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0,
                   stack[-1] if stack else -1, self.run]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = time.perf_counter()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target at each of its import sites."""
        for name, modname, attr, hook in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            wrapped = (self._counter(name, orig) if name in COUNT_ONLY
                       else self._span(name, orig, hook))
            if isinstance(owner, type):
                sites = [owner]
            else:
                sites = [mod for key, mod in list(sys.modules.items())
                         if key.split(".")[0] == "bergman"]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is orig:
                        setattr(site, key, wrapped)
                        self._installed.append((site, key, orig))

    def uninstall(self):
        for site, key, orig in reversed(self._installed):
            setattr(site, key, orig)
        self._installed.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,run\n")
            for name, start, end, parent, run in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{run}\n")


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, run) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def layer_totals(spans, counts):
    """Calls, seconds and self seconds per span name, plus the counters."""
    totals = defaultdict(float, counts)
    for (name, start, end, parent, run), own in zip(spans, self_times(spans)):
        totals[name + ".calls"] += 1
        totals[name + ".s"] += end - start
        totals[name + ".self_s"] += own
    return dict(totals)


def add_ratios(totals):
    """Replace the yield's raw attempt count by the ratios built on totals."""
    attempts = totals.pop("groups.enumerate.attempts", 0.0)
    elements = totals.get("groups.enumerate.elements", 0.0)
    totals["groups.enumerate.yield"] = elements / attempts if attempts else 0.0
    fs_calls = totals.get("symprod.fs_formula.calls", 0.0)
    totals["symprod.potential_per_tuple"] = (
        totals.get("symprod.potential.calls", 0.0) / fs_calls
        if fs_calls else 0.0)
    return totals
