"""Spans and counts at sectorflow's module boundaries, taken from outside.

A :class:`Tracer` replaces public functions of the sectorflow modules with
wrappers that record a span (name, start, end, parent span, op id) and,
for some of them, exact work counts read off the arguments and results.
:meth:`Tracer.install` returns the originals so the caller restores them;
the wrappers return the wrapped function's value unchanged.  Spans stay in
memory until :meth:`Tracer.write` at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

# (module, attribute, span name).  scenarios binds build_grid by name at
# import, and elliptic binds scipy's splu, so those are wrapped where they
# are looked up.
TARGETS = (
    ("scenarios", "run_scenario", "scenarios.run_scenario"),
    ("scenarios", "parse_config", "scenarios.parse_config"),
    ("scenarios", "build_grid", "domain.build_grid"),
    ("exact", "construct_exact", "exact.construct_exact"),
    ("exact", "euler_residual_closed_form", "exact.euler_residual_closed_form"),
    ("fields", "write_field", "fields.write_field"),
    ("fields", "field_from_csv", "fields.field_from_csv"),
    ("fields", "sample_stream", "fields.sample_stream"),
    ("fields", "sample_velocity", "fields.sample_velocity"),
    ("fields", "laplacian_polar", "fields.laplacian_polar"),
    ("rigidity", "recover_g", "rigidity.recover_g"),
    ("rigidity", "homogeneity_fit", "rigidity.homogeneity_fit"),
    ("rigidity", "boundary_report", "rigidity.boundary_report"),
    ("rigidity", "jacobian_check", "rigidity.jacobian_check"),
    ("rigidity", "sliding_check", "rigidity.sliding_check"),
    ("rigidity", "g_functional_check", "rigidity.g_functional_check"),
    ("elliptic", "solve_semilinear", "elliptic.solve_semilinear"),
    ("elliptic", "splu", "elliptic.splu"),
    ("angular_ode", "integrate_alpha1", "angular_ode.integrate_alpha1"),
    ("angular_ode", "periodic_shooting", "angular_ode.periodic_shooting"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    # seconds the tracer's own observers spent inside this span
    observe: float = 0.0
    tier: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start - self.observe


def _file_bytes(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


class Tracer:
    """Collects spans and exact counts; one per traced round."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = "setup"
        self._stack: list[int] = []
        self._alpha1_args: set = set()

    # ------------------------------------------------------------------
    # wrapping

    def install(self, modules: dict) -> list:
        """Wrap every target in ``modules`` (name -> module); returns the
        (module, attribute, original) triples for :func:`restore`."""
        saved = []
        for mod_name, attr, span_name in TARGETS:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(span_name, original))
        return saved

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result, error = None, None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.counts[name + ".calls"] += 1
                if observe:
                    self._observe(span, observe, args, kwargs, result, error)

        return wrapper

    def _observe(self, span, observe, args, kwargs, result, error):
        t0 = time.perf_counter()
        observe(self, span, args, kwargs, result, error)
        spent = time.perf_counter() - t0
        # the observer ran inside every span still open: do not bill them
        for index in self._stack:
            self.spans[index].observe += spent

    # ------------------------------------------------------------------
    # analysis

    def layer_times(self) -> dict:
        """Busy and self seconds per span name, and busy seconds per grid
        tier of the solver spans."""
        busy: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for span in self.spans:
            busy[f"{span.name}.busy_s"] += span.duration
            if span.tier is not None:
                busy[f"{span.name}.busy_s.n{span.tier}"] += span.duration
            if span.parent is not None:
                child[span.parent] += span.duration
        self_s: dict = defaultdict(float)
        for index, span in enumerate(self.spans):
            self_s[span.name] += span.duration - child.get(index, 0.0)
        return dict(busy, **{f"{name}.self_s": value for name, value in self_s.items()})

    def write(self, fh, trace_id: str):
        """Write every span to the open text file ``fh``, one JSON line each."""
        for index, s in enumerate(self.spans):
            fh.write(json.dumps({
                "trace": trace_id, "id": index, "name": s.name, "start": s.start,
                "end": s.end, "parent": s.parent, "op": s.op,
                "observe_s": s.observe, "tier": s.tier,
            }) + "\n")


# ----------------------------------------------------------------------
# exact counts read off arguments and results


def _on_splu(tr, span, args, kwargs, lu, exc):
    if lu is not None:
        tr.counts["elliptic.splu.fill_nnz"] += lu.L.nnz + lu.U.nnz


def _on_solve(tr, span, args, kwargs, result, exc):
    span.tier = args[0].n_s
    if result is not None:
        tr.counts["elliptic.newton_iters"] += result[1].iterations
    elif type(exc).__name__ == "NoConvergence":
        tr.counts["elliptic.no_convergence"] += 1
        if exc.report is not None:
            tr.counts["elliptic.newton_iters"] += exc.report.iterations


def _on_alpha1(tr, span, args, kwargs, result, exc):
    tr._alpha1_args.add(repr((args, sorted(kwargs.items()))))
    tr.counts["angular_ode.integrate_alpha1.distinct"] = len(tr._alpha1_args)
    if result is not None:
        accepted = len(result.profile.theta_nodes) - 1
        # a blow-up rejects one more step than it accepts
        tr.counts["angular_ode.rk4_steps"] += accepted + int(result.blew_up)
        tr.counts["angular_ode.blowups"] += int(result.blew_up)


def _on_write_field(tr, span, args, kwargs, path, exc):
    if path is not None:
        written = _file_bytes(path)
        if path.suffix == ".npy":
            written += _file_bytes(path.with_suffix(".json"))
        tr.counts["fields.write_field.bytes"] += written


def _on_read_field(tr, span, args, kwargs, result, exc):
    tr.counts["fields.field_from_csv.bytes"] += len(args[0].encode())


def _on_run_scenario(tr, span, args, kwargs, result, exc):
    tr.counts["scenarios.report_bytes"] += _file_bytes(Path(args[1]) / "report.json")


_OBSERVERS = {
    "elliptic.splu": _on_splu,
    "elliptic.solve_semilinear": _on_solve,
    "angular_ode.integrate_alpha1": _on_alpha1,
    "fields.write_field": _on_write_field,
    "fields.field_from_csv": _on_read_field,
    "scenarios.run_scenario": _on_run_scenario,
}


def restore(saved: list):
    for mod, attr, original in reversed(saved):
        setattr(mod, attr, original)
