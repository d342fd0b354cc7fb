"""Outside-in timing spans around flatopt's public functions.

The tracer changes no flatopt source. ``install`` wraps each target function
and rebinds the wrapper under every name that held the original in any
loaded ``flatopt`` module, so a call is caught whichever namespace it goes
through: ``optim.ns_polar``, ``polar.ns_polar`` inside
``composite_sharp_projection``, ``cli.run_experiment``, and so on. Methods
are wrapped on their class. ``uninstall`` puts every original back.

Each wrapped call records a span (name, start, end, parent span, context).
The context is a label the caller sets before each program call, such as
``run:muon_lite``, so time can be split by optimizer family. Spans stay in
memory until ``fold`` turns them into per-(context, name) call counts and
self time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) pairs timed as spans; "Class.method" wraps a method.
SPAN_TARGETS = (
    ("flatopt.cli", "main"),
    ("flatopt.harness", "parse_config"),
    ("flatopt.harness", "build_landscape"),
    ("flatopt.harness", "run_experiment"),
    ("flatopt.harness", "record_to_row"),
    ("flatopt.optim", "route_and_step"),
    ("flatopt.optim", "clip_global_norm"),
    ("flatopt.optim", "init_states"),
    ("flatopt.polar", "ns_polar"),
    ("flatopt.polar", "composite_sharp_projection"),
    ("flatopt.polar", "update_rank_controller"),
    ("flatopt.linalg", "qr_decompose"),
    ("flatopt.linalg", "sym_eig"),
    ("flatopt.linalg", "svd_oracle"),
    ("flatopt.subspace", "smoothed_sharp_mask"),
    ("flatopt.subspace", "update_soap_controller"),
    ("flatopt.subspace", "coverage_score"),
    ("flatopt.landscapes", "Landscape.pack"),
    ("flatopt.landscapes", "Landscape.unpack"),
    ("flatopt.landscapes", "MlpLandscape.fresh_batch"),
    ("flatopt.landscapes", "MlpLandscape.loss_on_batch"),
    ("flatopt.landscapes", "MlpLandscape.block_grads_on_batch"),
    ("flatopt.landscapes", "MlpLandscape.grad_on_batch"),
    ("flatopt.landscapes", "mean_row_hessian"),
    ("flatopt.landscapes", "mean_col_hessian"),
    ("flatopt.landscapes", "alignment_experiment"),
    ("flatopt.rng", "SplitMix64.normal"),
    ("flatopt.quadratic", "analyze_mode"),
    ("flatopt.dynamics", "ademamix_ode_residual"),
    ("flatopt.dynamics", "rk4_flow"),
    ("flatopt.dynamics", "semi_implicit_step"),
    ("flatopt.dynamics", "nesterov_forms_trace"),
)

# Counted but not timed: a span here would move the MLP forward pass out of
# the self time of loss_on_batch and block_grads_on_batch.
COUNT_TARGETS = (
    ("flatopt.landscapes", "MlpLandscape._forward", "landscapes.forward"),
)

_MARK = "__perfbench_original__"


def metric_name(module: str, attr: str) -> str:
    """``flatopt.landscapes`` + ``MlpLandscape.pack`` -> ``landscapes.pack``."""
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


def ns_polar_flops(shape, iterations: int) -> int:
    """Flops of one ns_polar call, computed from its input shape.

    Oriented m >= n, each quintic iteration forms XᵀX (2mn²), its square
    (2n³), the blended n-by-n polynomial (3n²), X times it (2mn²) and the
    a·X sum (2mn); the Frobenius scaling adds 3mn once.
    """
    m, n = max(shape), min(shape)
    return iterations * (4 * m * n * n + 2 * n ** 3 + 3 * n * n + 2 * m * n) + 3 * m * n


class Tracer:
    """Span recorder plus the wrappers that feed it; one per traced cell."""

    def __init__(self):
        self.context = ""
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._bindings = []
        self._last_polar_input = None

    # -- hooks run before the timed region of their span ------------------
    def _polar_hook(self, args, kwargs):
        a = np.asarray(args[0] if args else kwargs["a"])
        schedule = args[1] if len(args) > 1 else kwargs.get("schedule")
        if schedule is None:
            schedule = sys.modules["flatopt.polar"].NsSchedule()
        data = a.tobytes()
        if data == self._last_polar_input:
            self.counts[(self.context, "polar.ns_polar.dups")] += 1
        self._last_polar_input = data
        self.counts[(self.context, "polar.ns_polar.flops")] += ns_polar_flops(
            a.shape, schedule.iterations)

    def _normal_hook(self, args, kwargs):
        shape = args[1] if len(args) > 1 else kwargs["shape"]
        self.counts[(self.context, "rng.normal.values")] += int(np.prod(shape))

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, name, fn, hook):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.context)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(tracer.context, name)] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self):
        """Wrap every target and rebind it in each namespace that imported it."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        hooks = {"polar.ns_polar": self._polar_hook, "rng.normal": self._normal_hook}
        targets = [(mod, attr, metric_name(mod, attr), True) for mod, attr in SPAN_TARGETS]
        targets += [(mod, attr, name, False) for mod, attr, name in COUNT_TARGETS]
        for module_name, attr, name, timed in targets:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[leaf]
            wrapper = (self._span_wrapper(name, original, hooks.get(name)) if timed
                       else self._count_wrapper(name, original))
            if owner_name:
                self._rebind(owner, leaf, original, wrapper)
                continue
            for namespace in _flatopt_modules():
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._rebind(namespace, key, original, wrapper)

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._bindings.append((owner, key, original))

    def uninstall(self):
        """Restore every binding install() replaced, newest first."""
        while self._bindings:
            owner, key, original = self._bindings.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def fold(self):
        """Per (context, name): [calls, self seconds]; clears the spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, context), covered in zip(self.spans, child):
            rec = out[(context, name)]
            rec[0] += 1
            rec[1] += (end - start) - covered
        self.spans.clear()
        return dict(out)


def _flatopt_modules():
    return [module for key, module in list(sys.modules.items())
            if module is not None and (key == "flatopt" or key.startswith("flatopt."))]


def leftover_wrappers():
    """Names in flatopt namespaces and classes still bound to a wrapper."""
    found = []
    for module in _flatopt_modules():
        for key, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(f"{module.__name__}.{key}.{attr}"
                             for attr, member in vars(value).items() if hasattr(member, _MARK))
    return found
