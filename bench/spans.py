"""Span recorder for the traced run.

Spans are recorded only by wrappers this module installs around the
library's public functions and around the bodies of four cached properties;
the wrappers can be switched off again, so one process can serve a request
both with and without them.
Each span is ``[name, start, end, parent, request, extra]``; spans stay in
memory and the serving process writes them out once, when it exits.
Hot helpers such as ``compose`` and ``_transform`` are deliberately not
wrapped: they run millions of times and the wrapper would dominate.
"""

from __future__ import annotations

import contextlib
import sys
from time import perf_counter

# span name -> (module, attribute); every module that bound the function
# with ``from .x import f`` is patched too.
FUNCTIONS = {
    "cli.load_payload": ("yangbaxter.cli", "load_payload"),
    "cli.build_census": ("yangbaxter.cli", "build_census"),
    "cli.write_census": ("yangbaxter.cli", "write_census"),
    "unions.enumerate_2reductive": ("yangbaxter.unions", "enumerate_2reductive"),
    "unions.enumerate_cell": ("yangbaxter.unions", "enumerate_cell"),
    "unions.solution_to_union": ("yangbaxter.unions", "solution_to_union"),
    "unions.unions_isomorphic": ("yangbaxter.unions", "unions_isomorphic"),
    "unions.canonical_form": ("yangbaxter.unions", "canonical_form"),
    "unions.union_to_solution": ("yangbaxter.unions", "union_to_solution"),
    "groups.finite_group": ("yangbaxter.groups", "finite_group"),
    "solution.verify": ("yangbaxter.solution", "verify"),
    "retraction.multipermutation_level": ("yangbaxter.retraction", "multipermutation_level"),
    "retraction.permutation_groups": ("yangbaxter.retraction", "permutation_groups"),
    "brace.verify_brace": ("yangbaxter.brace", "verify_brace"),
    "brace.is_biskew": ("yangbaxter.brace", "is_biskew"),
    "brace.socle": ("yangbaxter.brace", "socle"),
    "brace.socle_series": ("yangbaxter.brace", "socle_series"),
    "brace.kernel_ideals": ("yangbaxter.brace", "kernel_ideals"),
    "brace.reductivity_profile": ("yangbaxter.brace", "reductivity_profile"),
    "brace.associated_solution": ("yangbaxter.brace", "associated_solution"),
}
PREDICATES = (
    "is_2reductive", "is_involutive", "is_square_free", "is_permutational",
    "is_projection", "has_lri", "is_left_distributive", "is_right_distributive",
    "satisfies_condition_star",
)
for _p in PREDICATES:
    FUNCTIONS[f"solution.{_p}"] = ("yangbaxter.solution", _p)

# span name -> (module, class, attribute) of a method or cached property body
METHODS = {
    "groups.generates": ("yangbaxter.groups", "AbelianGroup", "generates"),
}
CACHED = {
    "groups.automorphisms": ("yangbaxter.groups", "AbelianGroup", "automorphisms"),
    "groups.perm_closure": ("yangbaxter.groups", "PermGroup", "elements"),
    "brace.lambdas": ("yangbaxter.brace", "SkewBrace", "lambdas"),
    "brace.rhos": ("yangbaxter.brace", "SkewBrace", "rhos"),
}

# what a span keeps about its call, besides its times
EXTRA = {
    "solution.verify": lambda sigma, tau: len(sigma),
    "groups.automorphisms": lambda group: list(group.factors),
    "unions.enumerate_cell": lambda types: [list(t) for t in types],
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        extra = EXTRA.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.request,
                    extra(*args, **kwargs) if extra else None]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a whole request."""
        record = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                  self.request, None]
        self.spans.append(record)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self.stack.pop()

    def install(self):
        """Find every binding to wrap; `enable` and `disable` then swap them."""
        self.patches = []           # (owner, attribute, original, wrapped)
        library = [m for name, m in sys.modules.items()
                   if name == "yangbaxter" or name.startswith("yangbaxter.")]
        for name, (modname, attr) in FUNCTIONS.items():
            orig = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, orig)
            for mod in library:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self.patches.append((mod, key, orig, wrapped))
        for name, (modname, cls, attr) in METHODS.items():
            klass = getattr(sys.modules[modname], cls)
            orig = vars(klass)[attr]
            self.patches.append((klass, attr, orig, self.wrap(name, orig)))
        for name, (modname, cls, attr) in CACHED.items():
            prop = vars(getattr(sys.modules[modname], cls))[attr]
            self.patches.append((prop, "func", prop.func, self.wrap(name, prop.func)))

    def enable(self):
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)

    def disable(self):
        for owner, attr, orig, _ in self.patches:
            setattr(owner, attr, orig)


def self_times(spans):
    """{name: (calls, inclusive seconds, self seconds)}; a span's self time is
    its duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for idx, (name, start, end, _, _, _) in enumerate(spans):
        calls, incl, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, incl + end - start, own + end - start - covered[idx])
    return out
