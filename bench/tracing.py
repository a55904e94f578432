"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps library functions from the outside: every module of the
package that holds a reference to a traced function (``from .linalg import
svd`` creates such a binding in ``metrics``) gets the wrapper, so calls are
seen whichever module makes them.  Spans live in four parallel lists until
the run ends; ``aggregate`` turns them into per-function call counts and
self times.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "orbitdist"

# Layer functions traced, named <module>.<function> after src/orbitdist.
# search.ShapeDatabase is the class: its constructor is traced.
TRACED = (
    "linalg.as_matrix",
    "linalg.svd",
    "linalg.psd_sqrt",
    "metrics.orbit_distance",
    "embeddings.embedding_for",
    "features.feature_vector",
    "triangles.triangle_embedding",
    "reduction.build_reducer",
    "reduction.reduced_embedding",
    "search.ShapeDatabase",
    "search.feature_nearest",
    "search.verify",
    "search.linear_scan_nearest",
    "io.load_database",
    "io.save_database",
    "io.read_matrix",
    "io.atomic_write_text",
    "experiments.distortion_experiment",
    "experiments.classification_experiment",
    "experiments.lower_constant_survey",
    "cli.main",
)

# Span the benchmark opens around one search query; orbit_distance spans
# under it are the query's exact evaluations.
QUERY_SPAN = "bench.query"


class Tracer:
    """Records spans (name, parent, start, end) of one thread of calls."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _exit(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Open a span around a block; yields the span's index."""
        i = self._enter(name)
        try:
            yield i
        finally:
            self._exit(i)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(i)

        return traced

    def install(self, names=TRACED) -> None:
        """Wrap each named function at every binding site in the loaded
        package modules.  Functions of modules not yet imported are skipped:
        a workload that never imports ``io`` never calls it."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))
        ]
        for name in names:
            home = sys.modules.get(f"{PACKAGE}.{name.split('.')[0]}")
            if home is None:
                continue
            original = getattr(home, name.split(".")[1])
            if isinstance(original, type):
                self._patch(original, "__init__", self.wrap(original.__init__, name))
                continue
            wrapper = self.wrap(original, name)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    self._patch(m, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def graft(self, spans: dict, parent: int) -> None:
        """Append spans recorded by another process under span ``parent``."""
        offset = len(self.names)
        self.names.extend(spans["names"])
        self.parents.extend(p + offset if p >= 0 else parent for p in spans["parents"])
        self.starts.extend(spans["starts"])
        self.ends.extend(spans["ends"])

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "parents": self.parents,
            "starts": self.starts,
            "ends": self.ends,
        }

    def write(self, path) -> None:
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "wt") as fh:
            json.dump(self.to_dict(), fh)


def aggregate(spans: dict) -> dict[str, tuple[int, float]]:
    """Calls and total self time per span name.

    A span's self time is its duration minus the time its child spans
    cover.  Spans come from one thread per process, so the children of a
    span never overlap and their durations simply add up.
    """
    names, parents = spans["names"], spans["parents"]
    durations = [e - s for s, e in zip(spans["starts"], spans["ends"])]
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += durations[i]
    out: dict[str, tuple[int, float]] = {}
    for i, name in enumerate(names):
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + durations[i] - child[i])
    return out


def count_under(spans: dict, ancestor: str, name: str) -> tuple[int, int]:
    """(number of ``ancestor`` spans, number of ``name`` spans nested
    anywhere below one of them)."""
    names, parents = spans["names"], spans["parents"]
    inside = [False] * len(names)
    n_anc = n_name = 0
    for i, p in enumerate(parents):
        # parents precede their children in the lists
        inside[i] = names[i] == ancestor or (p >= 0 and inside[p])
        if names[i] == ancestor:
            n_anc += 1
        elif names[i] == name and inside[i]:
            n_name += 1
    return n_anc, n_name
