"""Spans around the public functions of each liefoliate module.

``Tracer.installed()`` replaces each traced function at every module name
through which the package calls it (``catalog.build_root_system``,
``foliations.parabolic_data``, the names ``cli`` imports, ...), so nested
calls become child spans.  Self time is a span's duration minus its
children's.  Counts and self times are summed as the spans close; the spans
themselves stay in memory and ``write`` saves them when the run ends.
``MultiplicityFunction.__call__`` runs once per root, so its calls are only
counted and timed, not kept as spans.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# module -> public functions traced as "<module>.<function>"
TRACED = {
    "roots": ("build_root_system", "dynkin_diagram", "diagram_automorphisms"),
    "catalog": ("catalog_lookup", "space_dimension"),
    "parabolic": ("parabolic_data", "root_subsystem", "horospherical", "boundary_components"),
    "foliations": ("enumerate_foliations", "orthogonal_subsets"),
    "slmodel": ("iwasawa_group", "killing_form", "is_lie_triple", "build_s_phi_v",
                "bracket_closure_residual", "halfplane_orbit"),
    "cli": ("main",),
}
UNSTORED = "catalog.MultiplicityFunction"
MAX_STORED_SPANS = 200_000


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.records = 0  # foliation records returned by enumerate_foliations
        self.spans: list[tuple] = []  # (request, span id, parent id, name, start, end)
        self.dropped = 0
        self.request = 0
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._next_id = 0

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn as a span called name and return its result."""
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else -1
        frame = [span_id, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
            if name != UNSTORED:
                if len(self.spans) < MAX_STORED_SPANS:
                    self.spans.append((self.request, span_id, parent, name, start, end))
                else:
                    self.dropped += 1

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "foliations.enumerate_foliations":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = tracer.span(name, fn, *args, **kwargs)
                tracer.records += len(result)
                return result
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every traced function at every module name that holds it."""
        import liefoliate
        from liefoliate import catalog, cli, foliations, parabolic, roots, slmodel, verify

        modules = {"roots": roots, "catalog": catalog, "parabolic": parabolic,
                   "foliations": foliations, "slmodel": slmodel, "cli": cli}
        holders = [liefoliate, roots, catalog, parabolic, foliations, slmodel, verify, cli]
        patched = []
        for module_name, functions in TRACED.items():
            for fn_name in functions:
                original = getattr(modules[module_name], fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for holder in holders:
                    if holder.__dict__.get(fn_name) is original:
                        patched.append((holder, fn_name, original))
                        setattr(holder, fn_name, wrapper)
        mult_call = catalog.MultiplicityFunction.__call__
        tracer = self

        def traced_call(mult, root):
            return tracer.span(UNSTORED, mult_call, mult, root)

        patched.append((catalog.MultiplicityFunction, "__call__", mult_call))
        catalog.MultiplicityFunction.__call__ = traced_call
        try:
            yield self
        finally:
            for holder, fn_name, original in reversed(patched):
                setattr(holder, fn_name, original)

    def write(self, path: Path) -> None:
        """Save the stored spans as JSON lines (times in seconds from the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[4] for span in self.spans), default=0.0)
        with path.open("w") as out:
            for request, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"request": request, "id": span_id, "parent": parent,
                                      "name": name, "start": round(start - origin, 9),
                                      "end": round(end - origin, 9)}) + "\n")
