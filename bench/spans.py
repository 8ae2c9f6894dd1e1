"""Spans around the public functions of metabayes, recorded from outside.

Nothing under ``src/`` is changed: :func:`install` replaces each traced
function, wherever a ``metabayes`` module holds a reference to it, by a
wrapper that records a span (name, start, end and the enclosing span).
Spans are kept in memory in flat integer arrays and written out when the
run ends; a layer's self time is its spans' duration minus the time their
child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute, span name); "Class.method" attributes wrap a method
TRACED = (
    ("metabayes.data", "builtin_dataset", "data.builtin_dataset"),
    ("metabayes.data", "parse_csv", "data.parse_csv"),
    ("metabayes.data", "convert_wide_to_long", "data.convert_wide_to_long"),
    ("metabayes.data", "read_long_csv", "data.read_long_csv"),
    ("metabayes.posterior", "Posterior.__init__", "posterior.build"),
    ("metabayes.posterior", "Posterior.logp_and_grad", "posterior.logp_and_grad"),
    ("metabayes.sampler", "hmc_transition", "sampler.hmc_transition"),
    ("metabayes.sampler", "run_chains", "sampler.run_chains"),
    ("metabayes.sampler", "write_draws_csv", "sampler.write_draws_csv"),
    ("metabayes.sampler", "read_draws_csv", "sampler.read_draws_csv"),
    ("metabayes.diagnostics", "summarize", "diagnostics.summarize"),
    ("metabayes.diagnostics", "dose_curve_bands", "diagnostics.dose_curve_bands"),
    ("metabayes.viz", "dose_plot_svg", "viz.dose_plot_svg"),
    ("metabayes.cli", "cmd_convert", "cli.convert"),
    ("metabayes.cli", "cmd_fit", "cli.fit"),
    ("metabayes.cli", "cmd_plot", "cli.plot"),
)

DATA_SPANS = frozenset(name for _, _, name in TRACED if name.startswith("data."))


class Tracer:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._fit: dict | None = None

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def open(self, name: str) -> int:
        span = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(self._name_id(name))
        self.start.append(time.perf_counter_ns())
        self.end.append(-1)
        self._stack.append(span)
        return span

    def close(self, span: int) -> int:
        now = time.perf_counter_ns()
        self.end[span] = now
        self._stack.pop()
        return now

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """A span measured elsewhere, e.g. the import before tracing began."""
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(self._name_id(name))
        self.start.append(start_ns)
        self.end.append(end_ns)

    def _wrapper(self, fn, name: str):
        if name == "sampler.hmc_transition":
            return self._transition_wrapper(fn, name)
        if name == "sampler.run_chains":
            return self._run_chains_wrapper(fn, name)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        traced.__wrapped__ = fn
        return traced

    def _transition_wrapper(self, fn, name: str):
        def traced(vg, state, eps, mass_diag, rng, *args, **kwargs):
            span = self.open(name)
            try:
                result = fn(vg, state, eps, mass_diag, rng, *args, **kwargs)
            finally:
                end = self.close(span)
            self.counters["sampler.transitions"] += 1
            self.counters["sampler.divergences"] += int(result[2])
            if self._fit is not None:
                # one Generator per chain: the first `warmup` transitions
                # of each generator are its warmup phase
                chain = self._fit["chains"].setdefault(id(rng), [rng, 0, None, None])
                chain[1] += 1
                if chain[1] == self._fit["warmup"]:
                    chain[2] = end
                chain[3] = end
            return result

        traced.__wrapped__ = fn
        return traced

    def _run_chains_wrapper(self, fn, name: str):
        def traced(spec, dataset, config):
            self._fit = {"warmup": config.warmup, "chains": {}}
            span = self.open(name)
            try:
                draws = fn(spec, dataset, config)
            finally:
                end = self.close(span)
                fit, self._fit = self._fit, None
            sampling = sum(last - warm_end for _, _, warm_end, last in fit["chains"].values())
            self.counters["sampler.sampling_ns"] += sampling
            self.counters["sampler.fit_ns"] += end - self.start[span]
            self.counters["sampler.kept_draws"] += draws.n_chains * draws.n_draws
            return draws

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every loaded metabayes module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "metabayes"]
        for module_name, attr, span_name in TRACED:
            owner = sys.modules.get(module_name)
            if owner is None:  # e.g. metabayes.cli, imported only by the CLI
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrapper(original, span_name))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrapper(original, span_name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "parent": self.parent.tolist(),
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": dict(self.counters),
        }


class SpanTable:
    """Spans of one or more processes, with derived durations and self times."""

    def __init__(self, dumps: list[dict]):
        names: list[str] = []
        parent, name, start, end, process = [], [], [], [], []
        for pid, dump in enumerate(dumps):
            offset = len(start)
            remap = []
            for n in dump["names"]:
                if n not in names:
                    names.append(n)
                remap.append(names.index(n))
            parent.extend(p + offset if p >= 0 else -1 for p in dump["parent"])
            name.extend(remap[i] for i in dump["name"])
            start.extend(dump["start"])
            end.extend(dump["end"])
            process.extend([pid] * len(dump["start"]))
        self.names = names
        self.parent = np.asarray(parent, dtype=np.int64)
        self.name = np.asarray(name, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.int64)
        self.end = np.asarray(end, dtype=np.int64)
        self.process = np.asarray(process, dtype=np.int64)
        self.duration = self.end - self.start
        child_time = np.bincount(
            self.parent[self.parent >= 0],
            weights=self.duration[self.parent >= 0],
            minlength=self.duration.size,
        )
        self.self_time = self.duration - child_time
        self.counters: Counter = Counter()
        for dump in dumps:
            self.counters.update(dump["counters"])

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.duration.size, dtype=bool)
        return self.name == self.names.index(name)

    def total_s(self, name: str) -> float:
        return float(self.duration[self.mask(name)].sum()) / 1e9

    def outermost_s(self, names: frozenset[str]) -> float:
        """Total time of spans in ``names`` not nested inside another of them."""
        ids = {self.names.index(n) for n in names if n in self.names}
        inside = np.array([n in ids for n in self.name], dtype=bool)
        top = inside.copy()
        for i in np.flatnonzero(inside):
            p = self.parent[i]
            while p >= 0:
                if inside[p]:
                    top[i] = False
                    break
                p = self.parent[p]
        return float(self.duration[top].sum()) / 1e9

    def layers(self) -> dict[str, dict]:
        """Per span name: count, total and self time in seconds."""
        out = {}
        for i, n in enumerate(self.names):
            m = self.name == i
            out[n] = {
                "count": int(m.sum()),
                "total_s": float(self.duration[m].sum()) / 1e9,
                "self_s": float(self.self_time[m].sum()) / 1e9,
            }
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "columns": ["process", "parent", "name", "start_ns", "end_ns"],
            "spans": np.stack(
                [self.process, self.parent, self.name, self.start, self.end], axis=1
            ).tolist(),
            "layers": self.layers(),
            "counters": dict(self.counters),
            **extra,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def grad_microbench(post, points: int = 20, reps: int = 25) -> float:
    """Median microseconds per logp_and_grad over fixed points."""
    rng = np.random.default_rng(20220201)
    zs = rng.normal(0.0, 0.5, size=(points, post.dim))
    f = post.logp_and_grad
    for z in zs[:3]:
        f(z)
    per_call = []
    for z in zs:
        start = time.perf_counter_ns()
        for _ in range(reps):
            f(z)
        per_call.append((time.perf_counter_ns() - start) / reps / 1e3)
    return float(np.median(per_call))
