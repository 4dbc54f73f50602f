"""Boundary tracing for the stochwave benchmark.

``Tracer.install`` wraps every public function of every loaded
``stochwave`` module in a timing wrapper, under each name a module looks it
up by: the defining module's own global (``spectral.forward``, reached by
``pseudospectral_apply``), every ``from .x import f`` binding
(``integrators.pseudospectral_apply``, ``experiments.diff_norm``) and the
attributes reached through a module object (``_kernels.propagate_noisy``,
``semigroup.apply_group``).  A span is named ``<layer>.<function>``, where
the layer is the defining module without its leading underscore.  Private
helpers are not wrapped, so their time is self time of the public function
that calls them; the cached lookups in ``SKIP`` are left unwrapped for the
same reason and to keep the overhead down.

Spans (id, parent id, name, start, end, measured attributes) stay in memory
and are written out once, by ``write_spans``.  ``layer_metrics`` reduces
them to the per-layer metrics the benchmark reports.  Nothing here changes
the program's arithmetic: wrappers pass arguments and results through.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import os
import sys
import time
from array import array

# cached table lookups called several times per step; their cost stays in
# the caller's self time (e.g. the mask inside pseudospectral_apply)
SKIP = frozenset({"band_mask", "mode_indices", "lambda_sq"})

# span name prefixes a per-layer metric is read from; any of them that
# install() does not find is reported as absent
EXPECTED = (
    "experiments.run_convergence", "experiments.run_single",
    "experiments.emit_study", "experiments.emit_csv",
    "experiments.write_plot_data", "integrators.run",
    "integrators.recover_high", "spectral.diff_norm", "spectral.with_band",
    "spectral.project_band", "spectral.forward", "spectral.inverse",
    "spectral.pseudospectral_apply", "spectral.save_snapshot",
    "kernels.weighted_norm_sq", "kernels.propagate",
    "semigroup.apply", "semigroup.propagator_tables",
    "problems.build_initial", "noise.sample_path", "noise.standard_normals",
    "noise.coarsen",
)


def _band_box(state) -> int:
    return state.u_hat.size


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# name -> fn(args, kwargs, result) giving the span's measured attribute
MEASURES = {
    "spectral.forward": lambda a, k, r: int(a[0].size),
    "spectral.inverse": lambda a, k, r: int(a[0].size),
    # two (u, v) pairs of complex128 at the common padded band
    "spectral.diff_norm": lambda a, k, r: 4 * 16 * max(_band_box(a[0]), _band_box(a[1])),
    "noise.standard_normals": lambda a, k, r: int(a[2]),
    "integrators.run": lambda a, k, r: (r.steps, r.wall_time, a[0].tau, a[1].n_cut),
    "spectral.save_snapshot": lambda a, k, r: _file_size(a[0]),
    "experiments.write_plot_data": lambda a, k, r: _file_size(a[0]),
    "experiments.emit_csv": lambda a, k, r: _file_size(a[1]),
}


def _measure_apply(a, k, r):
    return _band_box(a[0])


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    """Parent-linked spans recorded at the public function boundaries.

    Spans are stored column-wise in typed arrays (one entry per finished
    call), which keeps the garbage collector out of the traced run.  The
    parent stack is shared, so a traced call must run on one thread; the
    benchmark traces n_workers=1 calls only.
    """

    def __init__(self):
        self.names = []                 # span name per code
        self.sid = array("q")
        self.parent = array("q")
        self.code = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.attr = {}                  # sid -> measured attribute
        self.installed = set()          # span names that have a wrapper
        self.unmeasured = set()         # span names whose attribute failed
        self._ids = itertools.count(1)
        self._stack = [0]

    def spans(self):
        """(id, parent, name, t0, t1, attr) per span, in finishing order."""
        names, attr = self.names, self.attr
        return [(s, p, names[c], a, b, attr.get(s))
                for s, p, c, a, b in zip(self.sid, self.parent, self.code, self.t0, self.t1)]

    def wrap(self, name: str, fn):
        measure = MEASURES.get(name)
        if measure is None and name.startswith("semigroup.apply"):
            measure = _measure_apply
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        sids, parents, codes, starts, ends = self.sid, self.parent, self.code, self.t0, self.t1
        attrs, ids, stack, clock = self.attr, self._ids, self._stack, time.perf_counter
        unmeasured = self.unmeasured
        wrap_callback = name == "integrators.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if wrap_callback and kwargs.get("on_snapshot") is not None:
                kwargs["on_snapshot"] = self.wrap("experiments.on_snapshot",
                                                  kwargs["on_snapshot"])
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                sids.append(sid)
                parents.append(parent)
                codes.append(code)
                starts.append(t0)
                ends.append(t1)
            if measure is not None:
                try:
                    attrs[sid] = measure(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    unmeasured.add(name)  # the call's signature changed
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every public stochwave function at every binding.

        Returns the names in EXPECTED that were not found, so that a layer a
        later refactor removes is reported as absent instead of failing.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "stochwave" or n.startswith("stochwave."))
                   and not n.endswith(".cli")]
        originals = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in SKIP or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("stochwave.")):
                    continue
                # a function re-exported under its own name in its module
                # (e.g. _kernels.propagate = propagate_numpy) is named by the
                # binding, which is what callers look up
                defining = sys.modules[obj.__module__]
                key = attr if getattr(defining, attr, None) is obj else obj.__name__
                originals.setdefault((mod, attr), (f"{_layer(obj.__module__)}.{key}", obj))
        wrappers = {}
        for (mod, attr), (name, fn) in originals.items():
            wrapper = wrappers.get((name, fn))
            if wrapper is None:
                wrapper = wrappers[(name, fn)] = self.wrap(name, fn)
            setattr(mod, attr, wrapper)
            self.installed.add(name)
        return [n for n in EXPECTED
                if not any(i.startswith(n) for i in self.installed)]

    def write_spans(self, path) -> None:
        """Tab-separated spans: id, parent, name, start_s, end_s, attr."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tattr\n")
            for sid, parent, name, t0, t1, attr in self.spans():
                fh.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\t{attr}\n")


# per-layer metrics that are exact counts; they must repeat across runs
COUNTS = (
    "spectral.diff_norm.calls", "spectral.diff_norm.mb_computed",
    "spectral.fft.calls", "spectral.fft.gflop_computed",
    "semigroup.apply.calls", "semigroup.modes", "semigroup.tables_built",
    "integrators.steps", "spectral.save_snapshot.bytes",
    "experiments.emit.bytes", "noise.sample_path.calls", "noise.normals",
)


def layer_metrics(spans, root: str, ref_tau: float | None, ref_cut: int | None):
    """Reduce spans to per-layer totals, plus the per-sample durations.

    ``root`` names the entry point whose self time is unattributed.  A run
    of ``integrators.run`` is the study's reference when its step is
    ``ref_tau`` on a grid with stepped band ``ref_cut``.  Step time comes
    from the benchmark's own clocks: a run's loop lasts from the start of
    its first ``step_*`` call to the end of its last, minus the other calls
    the run makes in that interval (snapshot assembly and the callback).
    Assembly is the rest of the run outside the callbacks.
    ``RunResult.wall_time`` is reported separately, because it counts the
    snapshot work as stepping.
    """
    total, count, self_s, attr_sum = {}, {}, {}, {}
    child_time = {}
    run_kids = {}
    runs = []
    samples = []
    for sid, parent, name, t0, t1, attr in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    for span in spans:
        sid, parent, name, t0, t1, attr = span
        dur = t1 - t0
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(sid, 0.0)
        if name == "integrators.run":
            runs.append(span)
        elif name == "noise.sample_path":
            samples.append(span)
        if isinstance(attr, (int, float)):
            attr_sum[name] = attr_sum.get(name, 0) + attr
            if name in ("spectral.forward", "spectral.inverse"):
                attr_sum["fft.flop"] = attr_sum.get("fft.flop", 0.0) + 5.0 * attr * math.log2(attr)
    run_ids = {s[0] for s in runs}
    for span in spans:
        if span[1] in run_ids:
            run_kids.setdefault(span[1], []).append(span)

    steps = loop = assemble = ref_s = coarse_s = wall = 0.0
    for sid, parent, name, t0, t1, attr in runs:
        kids = run_kids.get(sid, [])
        stepping = [k for k in kids if k[2].startswith("integrators.step_")]
        run_loop = 0.0
        if stepping:
            lo, hi = stepping[0][3], stepping[-1][4]
            run_loop = hi - lo - sum(k[4] - k[3] for k in kids if lo <= k[3] < hi
                                     and not k[2].startswith("integrators.step_"))
        loop += run_loop
        assemble += (t1 - t0) - run_loop - sum(
            k[4] - k[3] for k in kids if k[2] == "experiments.on_snapshot")
        if attr is not None:
            n_steps, run_wall, tau, n_cut = attr
            steps += n_steps
            wall += run_wall
            if tau == ref_tau and n_cut == ref_cut:
                ref_s += t1 - t0
            else:
                coarse_s += t1 - t0

    # a sample lasts from one sample_path call to the next one under the
    # same entry point, the last one until that entry point returns
    roots = {s[0]: s for s in spans if s[1] == 0}
    sample_ms = []
    by_root = {}
    for span in samples:
        by_root.setdefault(span[1], []).append(span[3])
    for rid, starts in by_root.items():
        end = roots[rid][4] if rid in roots else starts[-1]
        bounds = sorted(starts) + [end]
        sample_ms += [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]

    def prefixed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    root_total = total.get(root, 0.0)
    metrics = {
        "spectral.diff_norm.s": total.get("spectral.diff_norm", 0.0),
        "spectral.diff_norm.calls": count.get("spectral.diff_norm", 0),
        "spectral.diff_norm.mb_computed": attr_sum.get("spectral.diff_norm", 0) / 1e6,
        "kernels.weighted_norm_sq.s": total.get("kernels.weighted_norm_sq", 0.0),
        "integrators.assemble_s": assemble,
        "spectral.with_band.s": total.get("spectral.with_band", 0.0),
        "spectral.project_band.s": total.get("spectral.project_band", 0.0),
        "spectral.inverse.s": total.get("spectral.inverse", 0.0),
        "spectral.forward.s": total.get("spectral.forward", 0.0),
        "spectral.fft.calls": count.get("spectral.forward", 0) + count.get("spectral.inverse", 0),
        "spectral.fft.gflop_computed": attr_sum.get("fft.flop", 0.0) / 1e9,
        "spectral.pseudospectral_apply.self_s": self_s.get("spectral.pseudospectral_apply", 0.0),
        "kernels.propagate.s": prefixed(total, "kernels.propagate"),
        "semigroup.apply.s": prefixed(total, "semigroup.apply"),
        "semigroup.apply.calls": prefixed(count, "semigroup.apply"),
        "semigroup.modes": prefixed(attr_sum, "semigroup.apply"),
        "semigroup.tables_built": count.get("semigroup.propagator_tables", 0),
        "integrators.run.self_s": self_s.get("integrators.run", 0.0),
        "integrators.run.ref_s": ref_s,
        "integrators.run.coarse_s": coarse_s,
        "integrators.steps": int(steps),
        "integrators.us_per_step": 1e6 * loop / steps if steps else 0.0,
        "integrators.loop_s": loop,
        "integrators.wall_time_s": wall,
        "problems.build_initial.s": total.get("problems.build_initial", 0.0),
        "spectral.save_snapshot.s": total.get("spectral.save_snapshot", 0.0),
        "spectral.save_snapshot.bytes": attr_sum.get("spectral.save_snapshot", 0),
        "experiments.write_plot_data.s": total.get("experiments.write_plot_data", 0.0),
        "experiments.emit.bytes": (attr_sum.get("experiments.write_plot_data", 0)
                                   + attr_sum.get("experiments.emit_csv", 0)),
        "noise.sample_path.s": total.get("noise.sample_path", 0.0),
        "noise.sample_path.calls": count.get("noise.sample_path", 0),
        "noise.normals": attr_sum.get("noise.standard_normals", 0),
        "noise.coarsen.s": total.get("noise.coarsen", 0.0),
        "experiments.run_convergence.s": total.get("experiments.run_convergence", 0.0),
        "experiments.run_single.s": total.get("experiments.run_single", 0.0),
        "trace.unattributed_frac": self_s.get(root, 0.0) / root_total if root_total else 0.0,
    }
    return metrics, sample_ms
