"""In-memory span tracer that times the package's layers from outside it.

The tracer never edits the package.  It replaces, for the length of a
``with tracer.installed(...)`` block, the public callables one module of
``branchpde`` looks up in another (``cli.estimate``, ``engine.RngStream``,
``model.psi_getoor_batch``, the ``__call__`` of the coefficient and terminal
classes, ...) with wrappers that record a span around the original call, and
puts every original back when the block ends.  The wrappers forward their
arguments and results unchanged and draw through the very same
``numpy.random.Generator``, so a traced run gives bit-identical estimates.

A span is ``(id, parent, name, start, end)``; every span of one tracer shares
its ``run_id``.  Spans are kept in memory and written out by ``dump``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

# class name in branchpde.model -> span name of its __call__
MODEL_CALLABLES = {
    "ConstantCoefficient": "model.coeff",
    "ExpressionCoefficient": "model.coeff",
    "NldSource": "model.coeff",
    "GraddSource": "model.coeff",
    "ScaledBump": "model.terminal",
    "CosineProduct": "model.terminal",
    "HalfspaceIndicator": "model.terminal",
    "ConstantTerminal": "model.terminal",
    "ClippedCoordinate": "model.terminal",
    "ExpressionTerminal": "model.terminal",
}

# Generator methods the engine calls directly -> span name
TIMED_DRAWS = {"gamma": "sampling.gamma", "standard_normal": "sampling.normal",
               "random": "sampling.uniform"}

# psi_getoor_batch evaluates exterior points with z = 1/r2 > 0.9 by the 1-z
# connection formula (``near = z > 0.9`` in specfun.psi_getoor_batch).  The
# engine does not expose that choice, so the threshold is repeated here, and
# bench/tests/test_tracer.py checks the count against the formula's calls.
_NEAR_ONE_Z = 0.9


class Tracer:
    """Collects spans and counters for one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [id, parent, name, start, end]
        self.counts = Counter()
        self.results = []        # (mark, EstimatorResult) per engine.estimate
        self._stack = []
        self._saved = []         # (owner, attribute, original)

    # ---- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while {popped} was open")

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def wrap(self, fn, name: str, on_call=None):
        """``fn`` inside a span; ``on_call(args, kwargs, result)`` adds counts."""
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, out)
            return out
        traced.__wrapped__ = fn
        return traced

    # ---- installing wrappers ---------------------------------------------

    def patch(self, owner, attribute: str, value) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self, stages: bool = True, pool: bool = False):
        """Wrap the package's cross-module calls while the block runs.

        ``stages`` wraps the per-stage callables (RNG draws, CMS, model
        callables, special functions, expressions); they run inside the pool
        workers too, where their spans are lost, so pool runs trace with
        ``stages=False, pool=True`` and see only the parent side.
        """
        try:
            self._install_entry_points()
            if stages:
                self._install_stages()
            if pool:
                self._install_pool()
            yield self
        finally:
            self.restore()

    def _install_entry_points(self):
        from branchpde import cli, engine

        def record(args, kwargs, result):
            # every caller passes estimate(model, t, x, mark, ...) positionally
            self.results.append((int(args[3]), result))

        estimate = self.wrap(engine.estimate, "engine.estimate", record)
        self.patch(cli, "estimate", estimate)
        self.patch(engine, "estimate", estimate)
        self.patch(cli, "resolve_model",
                   self.wrap(cli.resolve_model, "model.build"))
        self.patch(cli, "build_horizon_report",
                   self.wrap(cli.build_horizon_report, "existence.check"))

    def _install_stages(self):
        from branchpde import engine, expressions, model

        real_stream = engine.RngStream

        def stream(master_seed, stream_id):
            self.counts["engine.batches"] += 1
            rng = real_stream(master_seed, stream_id)
            rng.gen = _GeneratorProbe(rng.gen, self)
            return rng

        self.patch(engine, "RngStream", stream)

        real_cms = engine.sample_stable_subordinator

        def cms(alpha, t, rng, size=None):
            before = rng.cms_resamples
            with self.span("sampling.cms"):
                out = real_cms(alpha, t, rng, size=size)
            self.counts["sampling.cms_draws"] += int(np.size(out))
            self.counts["sampling.cms_resamples"] += rng.cms_resamples - before
            return out

        self.patch(engine, "sample_stable_subordinator", cms)

        for cls_name, span_name in MODEL_CALLABLES.items():
            cls = getattr(model, cls_name)
            self.patch(cls, "__call__", self.wrap(cls.__call__, span_name))
        self.patch(model.LifetimeDensity, "rho",
                   self.wrap(model.LifetimeDensity.rho, "model.rho"))

        def psi_counts(args, kwargs, out):
            r2 = np.asarray(args[3], dtype=float)
            outside = r2 > 1.0
            self.counts["specfun.psi_points"] += r2.size
            self.counts["specfun.psi_exterior_points"] += int(
                np.count_nonzero(outside))
            self.counts["specfun.psi_near_one_points"] += int(np.count_nonzero(
                1.0 / r2[outside] > _NEAR_ONE_Z))

        for owner in (model, expressions):
            self.patch(owner, "psi_getoor_batch",
                       self.wrap(owner.psi_getoor_batch, "specfun.psi",
                                 psi_counts))
        self.patch(model, "upper_reg_gamma",
                   self.wrap(model.upper_reg_gamma, "specfun.survival"))
        self.patch(model, "phi_bump",
                   self.wrap(model.phi_bump, "specfun.phi_bump"))

        def eval_points(args, kwargs, out):
            self.counts["expressions.points"] += int(np.size(out))

        self.patch(model, "eval_expression",
                   self.wrap(model.eval_expression, "expressions.eval",
                             eval_points))

    def _install_pool(self):
        from branchpde import engine

        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Pool whose parent-side lifetime (start, map, shutdown) is a span."""

            def __init__(self, *args, **kwargs):
                tracer.counts["engine.pool_starts"] += 1
                self._span = tracer.open("engine.pool")
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    tracer.close(self._span)

        self.patch(engine, "ProcessPoolExecutor", TracedPool)

    # ---- reading the trace -----------------------------------------------

    def layer_times(self, root: int):
        """Inclusive and self seconds per span name, over the span ``root``
        and everything below it."""
        inside = {root}
        spans = [self.spans[root]]
        for span in self.spans[root + 1:]:
            if span[1] in inside:
                inside.add(span[0])
                spans.append(span)
        total = defaultdict(float)
        covered = defaultdict(float)
        for sid, parent, name, start, end in spans:
            total[name] += end - start
            if parent in inside:
                covered[parent] += end - start
        self_time = defaultdict(float)
        for sid, parent, name, start, end in spans:
            self_time[name] += (end - start) - covered[sid]
        return total, self_time

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


class _GeneratorProbe:
    """Forwards every call to the wrapped Generator, counting the variates it
    returns and timing the draws the engine makes itself."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        method = getattr(self._gen, name)
        tracer = self._tracer
        span_name = TIMED_DRAWS.get(name)

        def draw(*args, **kwargs):
            if span_name is None:
                out = method(*args, **kwargs)
            else:
                with tracer.span(span_name):
                    out = method(*args, **kwargs)
                if name == "standard_normal":
                    tracer.counts["sampling.normal_draws"] += int(np.size(out))
                if name == "gamma":
                    tracer.counts["engine.levels"] += 1
            tracer.counts["engine.variates"] += int(np.size(out))
            return out

        return draw
