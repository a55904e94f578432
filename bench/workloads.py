"""The benchmark's workloads: seeded input generators, one closed loop per
workload, and the correctness checks.

Each loop is a closed loop with one client: the next call starts only when
the previous one has returned, as for a library caller or a shell user.
The checks rest only on the paper's inequalities (exact alignment, the
sqrt(2) sandwich, a non-expansive projection), never on the bytes of a
particular random draw, and run outside the timed region.
"""
from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np
import orbitdist as od

from speed import MIN_PROBES, PAD_S, Speedometer
from tracing import QUERY_SPAN, Tracer

G = od.GroupAction
SQRT2 = float(np.sqrt(2.0))
SQRT3 = float(np.sqrt(3.0))
# Relative slack for the inequalities, far above float64 round-off in
# these small problems and far below any real violation.
REL_TOL = 1e-9
CHILD = Path(__file__).resolve().parent / "child.py"
# Fresh interpreters started to time one set-up; the median is reported.
SETUP_REPEATS = 5


class Tally:
    """Latencies of completed ops and failures among attempted ones.

    ``pad`` is how far from an op the speed probes that scale it may lie:
    in-process ops are probed between ops, child processes during them.
    """

    def __init__(self, speed: Speedometer, pad: float):
        self.speed = speed
        self.pad = pad
        self.starts: list[float] = []
        self.latencies_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op, check, *args):
        """Time ``op(*args)``, then check its output untimed.  An op that
        raises or fails its check counts as failed."""
        self.attempted += 1
        start = perf_counter()
        t0 = perf_counter_ns()
        try:
            out = op(*args)
        except Exception as exc:
            self.fail(f"{op.__name__}: {type(exc).__name__}: {exc}")
            return None
        self.latencies_ns.append(perf_counter_ns() - t0)
        self.starts.append(start)
        try:
            why = None if check(*args, out) else "output failed its check"
        except (TypeError, ValueError, KeyError, IndexError, OSError) as exc:
            why = f"output unreadable: {type(exc).__name__}: {exc}"
        if why:
            self.fail(f"{op.__name__}: {why}")
        return out

    def scaled_ns(self) -> list[float]:
        """Latencies at reference speed (see speed.py)."""
        return [
            lat * self.speed.factor(t, t + lat / 1e9, self.pad)
            for t, lat in zip(self.starts, self.latencies_ns)
        ]

    def untimed_check(self, ok: bool, why: str) -> None:
        """Count a check that goes with no op."""
        self.attempted += 1
        if not ok:
            self.fail(why)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


@dataclass
class Outcome:
    """What one workload run hands to run.py."""

    tally: Tally
    # set-up samples at reference speed, and as measured
    setup_s: list[float] = field(default_factory=list)
    raw_setup_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    # further measured values for the detail block: name -> (value, unit)
    extra: dict = field(default_factory=dict)
    tracer: Tracer | None = None


def span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def closed_loop(step, round_len: int, seconds: float | None = None, rounds: int = 1):
    """Call ``step(i)`` for i = 0, 1, ... in whole rounds of ``round_len``
    ops, so every run sees the same mix.  Stop after ``rounds`` rounds, or,
    given ``seconds``, at the first round boundary after at least
    ``rounds`` rounds once ``seconds`` have passed."""
    start = perf_counter()
    i = 0
    while True:
        if i % round_len == 0 and i // round_len >= rounds:
            if seconds is None or perf_counter() - start >= seconds:
                return
        step(i)
        i += 1


def fingerprint(inputs) -> str:
    """Digest of generated inputs, for the generator determinism probe."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(x.tobytes())
        elif isinstance(x, (list, tuple)):
            for y in x:
                feed(y)
        else:
            h.update(repr(x).encode())

    feed(inputs)
    return h.hexdigest()


def probe_generator(tally: Tally, generate, seed: int) -> None:
    """One seed must give identical inputs, another seed different ones."""
    a, b, c = (fingerprint(generate(s)) for s in (seed, seed, seed + 1))
    tally.untimed_check(a == b, "generator: same seed gave different inputs")
    tally.untimed_check(a != c, "generator: different seeds gave the same inputs")


def child_setup(speed: Speedometer, workdir: Path, *args: str) -> tuple[float, float]:
    """(set-up time a child reports, speed factor while it ran)."""
    child = speed.run_child([sys.executable, str(CHILD), *args], workdir)
    if child.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {child.returncode}: {child.stderr.strip()}")
    setup_s = json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]
    return setup_s, speed.factor(child.start, child.end, 0.0)


def setup_samples(outcome: Outcome, samples) -> Outcome:
    """Record (raw seconds, speed factor) set-up samples on ``outcome``."""
    for raw, factor in samples:
        outcome.raw_setup_s.append(raw)
        outcome.setup_s.append(raw * factor)
    return outcome


def _tol(*mats) -> float:
    return REL_TOL * max([1.0] + [float(np.linalg.norm(m)) for m in mats])


def _rigid_copy(rng, x: np.ndarray, noise: float) -> np.ndarray:
    """``x`` perturbed by gaussian noise, then moved by a random element of
    the euclidean group: its orbit lies near the orbit of ``x``."""
    n = x.shape[0]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ (x + noise * rng.standard_normal(x.shape)) + rng.standard_normal((n, 1))


# ---------------------------------------------------------------------------
# pairs: the scalar API, one pair of configurations per op

# (n, l, complex): triangles, two larger real shapes and a complex one
PAIR_SHAPES = ((2, 3, False), (2, 5, False), (3, 8, False), (2, 6, True))
# every group with every shape it accepts (O and E need real input)
PAIR_KINDS = tuple(
    (g, n, l, cx)
    for n, l, cx in PAIR_SHAPES
    for g in (G.ORTHOGONAL, G.EUCLIDEAN, G.UNITARY, G.COMPLEX_EUCLIDEAN)
    if g.is_complex or not cx
)
PAIRS_PER_KIND = 64
PAIRS_TRACED_ROUNDS = 50


def _draw(rng, n: int, l: int, cx: bool) -> np.ndarray:
    a = rng.standard_normal((n, l))
    return a + 1j * rng.standard_normal((n, l)) if cx else a


def pairs_inputs(seed: int) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    rng = np.random.default_rng([seed, 1])
    return [
        [(_draw(rng, n, l, cx), _draw(rng, n, l, cx)) for _ in range(PAIRS_PER_KIND)]
        for _, n, l, cx in PAIR_KINDS
    ]


def pairs_first_pairs(seed: int) -> list[tuple]:
    """The first pair of each op kind, for the set-up probe."""
    return [(kind[0], *pairs[0]) for kind, pairs in zip(PAIR_KINDS, pairs_inputs(seed))]


def pairs_reducer(group, a: np.ndarray):
    """Cached reducer for this group and shape, or None where the shape is
    too small to reduce (triangles)."""
    try:
        return od.reducer_for(group, *a.shape)
    except od.DimensionHypothesisError:
        return None


def pairs_op(group, a, b, reducer):
    d, alignment = od.orbit_distance(group, a, b)
    fa = od.feature_vector(group, a)
    fb = od.feature_vector(group, b)
    if reducer is None:
        return d, alignment, fa, fb, None, None
    ra = od.reduced_embedding(group, a, reducer)
    rb = od.reduced_embedding(group, b, reducer)
    return d, alignment, fa, fb, ra, rb


def pairs_check(group, a, b, reducer, out) -> bool:
    """The aligner achieves d, d <= |df| <= sqrt(2) d, and the reduced gap
    is at most the full gap.  Plain numpy only, so a traced run does not
    count the checks' own arithmetic as library calls."""
    d, alignment, fa, fb, ra, rb = out
    tol = _tol(a, b)
    moved = alignment.rotation @ a + alignment.translation[:, None]
    gap = float(np.linalg.norm(fa - fb))
    ok = abs(float(np.linalg.norm(moved - b)) - d) <= tol and d - tol <= gap <= SQRT2 * d + tol
    if ra is not None:
        ok = ok and float(np.linalg.norm(ra - rb)) <= gap + tol
    return bool(ok)


def _pairs_pass(inputs, reducers, tally: Tally, **stop) -> None:
    def step(i):
        k = i % len(PAIR_KINDS)
        if k == 0:
            tally.speed.probe()
        a, b = inputs[k][(i // len(PAIR_KINDS)) % PAIRS_PER_KIND]
        tally.run(pairs_op, pairs_check, PAIR_KINDS[k][0], a, b, reducers[k])

    closed_loop(step, len(PAIR_KINDS), **stop)
    tally.speed.probe()


def run_pairs(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    speed = Speedometer()
    inputs = pairs_inputs(seed)
    setup = [child_setup(speed, workdir, "import-pairs", str(seed)) for _ in range(SETUP_REPEATS)]
    reducers = [pairs_reducer(kind[0], pairs[0][0]) for kind, pairs in zip(PAIR_KINDS, inputs)]
    if not trace:
        tally = Tally(speed, PAD_S)
        _pairs_pass(inputs, reducers, tally, seconds=seconds)
        return setup_samples(Outcome(tally, peak_rss_mb=_rss_mb(resource.RUSAGE_SELF)), setup)
    outcome = _traced(
        lambda tally, tracer: _pairs_pass(inputs, reducers, tally, rounds=PAIRS_TRACED_ROUNDS),
        speed, PAD_S, pairs_inputs, seed,
    )
    return setup_samples(outcome, setup)


# ---------------------------------------------------------------------------
# search: a long-lived database, queried through the feature index

SEARCH_N = 20_000
SEARCH_SHAPE = (2, 6)
SEARCH_K = 5
# every EXACT_EVERY-th query also runs the exact linear scan; odd, so the
# scanned queries alternate between planted and fresh ones
EXACT_EVERY = 1501
SEARCH_POOL = 4 * EXACT_EVERY
PLANT_NOISE = 0.05
SEARCH_SETUP_REPEATS = 3
# queries between two speed probes (about 35 ms of work)
PROBE_EVERY = 10


def search_inputs(seed: int):
    """Records, then queries: even ones planted near a random record, odd
    ones fresh gaussian draws."""
    rng = np.random.default_rng([seed, 2])
    records = rng.standard_normal((SEARCH_N, *SEARCH_SHAPE))
    queries = [
        _rigid_copy(rng, records[rng.integers(SEARCH_N)], PLANT_NOISE)
        if j % 2 == 0
        else rng.standard_normal(SEARCH_SHAPE)
        for j in range(SEARCH_POOL)
    ]
    return records, queries


def _record_ids(n: int) -> list[str]:
    return [f"r{j:05d}" for j in range(n)]


def search_op(db, q, exact: bool, tracer: Tracer | None):
    with span(tracer, QUERY_SPAN):
        hits = od.feature_nearest(db, q, k=SEARCH_K)
        verified = [od.verify(db, h, q) for h in hits]
    if not exact:
        return verified, None
    with span(tracer, "bench.exact_query"):
        return verified, od.linear_scan_nearest(db, q)


def search_check(db, q, exact, tracer, out) -> bool:
    """k verified hits, each within the sandwich; with a scan, the best hit
    is no better than the exact nearest and within sqrt(2) of it."""
    verified, scan = out
    tol = _tol(q)
    ok = len(verified) == SEARCH_K and all(
        h.exact_orbit_distance - tol <= h.embedded_distance <= SQRT2 * h.exact_orbit_distance + tol
        for h in verified
    )
    if scan is not None:
        best = min(h.exact_orbit_distance for h in verified)
        d = scan.exact_orbit_distance
        ok = ok and d - tol <= best <= SQRT2 * d + tol
    return bool(ok)


def _probes(speed: Speedometer, n: int) -> None:
    for _ in range(n):
        speed.probe()


def _search_pass(db, queries, tally: Tally, tracer=None, **stop) -> list[int]:
    """Returns the indices, among completed ops, of the queries with a scan."""
    scans: list[int] = []

    def step(i):
        exact = i % EXACT_EVERY == 0
        # a scan runs for seconds with no probe inside: probe densely around it
        _probes(tally.speed, MIN_PROBES if exact else int(i % PROBE_EVERY == 0))
        out = tally.run(search_op, search_check, db, queries[i % SEARCH_POOL], exact, tracer)
        if exact:
            _probes(tally.speed, MIN_PROBES)
            if out is not None:
                scans.append(len(tally.latencies_ns) - 1)

    closed_loop(step, EXACT_EVERY, **stop)
    return scans


def run_search(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    speed = Speedometer()
    records, queries = search_inputs(seed)
    entries = list(zip(_record_ids(SEARCH_N), records))
    setup = []
    for _ in range(SEARCH_SETUP_REPEATS):
        _probes(speed, MIN_PROBES)
        t0 = perf_counter()
        db = od.ShapeDatabase(G.EUCLIDEAN, entries)
        t1 = perf_counter()
        _probes(speed, MIN_PROBES)
        setup.append((t1 - t0, speed.factor(t0, t1)))
    if not trace:
        tally = Tally(speed, PAD_S)
        scans = _search_pass(db, queries, tally, seconds=seconds)
        scaled = tally.scaled_ns()
        extra = {
            "exact_query_s": (statistics.median(scaled[j] for j in scans) / 1e9, "s"),
            "raw_exact_query_s": (statistics.median(tally.latencies_ns[j] for j in scans) / 1e9, "s"),
        }
        outcome = Outcome(tally, peak_rss_mb=_rss_mb(resource.RUSAGE_SELF), extra=extra)
        return setup_samples(outcome, setup)

    def traced_pass(tally, tracer):
        # the traced pass rebuilds the database so the build is traced too
        built = od.ShapeDatabase(G.EUCLIDEAN, entries) if tracer is not None else db
        _search_pass(built, queries, tally, tracer, rounds=1)

    return setup_samples(_traced(traced_pass, speed, PAD_S, search_inputs, seed), setup)


# ---------------------------------------------------------------------------
# cli: each command a fresh process, as a shell user runs them

CLI_DB_N = 5_000
CLI_QUERIES = 8
LOWER_CONSTANT = {"group": "O", "n": 1, "l": 32, "n_pairs": 2000}
COMMANDS = ("distortion", "classify", "lower-constant", "db-query")
# At least two cycles, so the tail percentile falls between two classify
# runs however slow the machine is.
CLI_MIN_CYCLES = 2


def cli_inputs(seed: int):
    """Database records, query configurations, and one experiment seed
    per cycle of commands (for the first 64 cycles)."""
    rng = np.random.default_rng([seed, 3])
    records = rng.standard_normal((CLI_DB_N, *SEARCH_SHAPE))
    queries = [
        _rigid_copy(rng, records[rng.integers(CLI_DB_N)], PLANT_NOISE)
        if j % 2 == 0
        else rng.standard_normal(SEARCH_SHAPE)
        for j in range(CLI_QUERIES)
    ]
    return records, queries, [int(s) for s in rng.integers(2**31, size=64)]


def _cli_files(seed: int, workdir: Path):
    """Write the database, query and config files the commands read."""
    import orbitdist.io as odio

    records, queries, seeds = cli_inputs(seed)
    odio.save_database(workdir / "db.jsonl", od.ShapeDatabase(G.EUCLIDEAN, list(zip(_record_ids(CLI_DB_N), records))))
    for j, q in enumerate(queries):
        odio.write_matrix(workdir / f"query{j}.csv", q)
    (workdir / "lower_constant.json").write_text(json.dumps(LOWER_CONSTANT))
    return seeds


def cli_argv(kind: str, cycle: int, seeds: list[int], workdir: Path, out: Path) -> list[str]:
    if kind == "db-query":
        query = workdir / f"query{cycle % CLI_QUERIES}.csv"
        return ["db-query", str(workdir / "db.jsonl"), str(query), "-k", str(SEARCH_K), "--verify"]
    argv = ["experiment", kind, "--seed", str(seeds[cycle % len(seeds)]), "--out", str(out)]
    if kind == "lower-constant":
        argv += ["--config", str(workdir / "lower_constant.json")]
    return argv


def cli_op(kind: str, argv: list[str], out: Path, trace_out: str, speed: Speedometer, tracer: Tracer | None):
    # a db-query command is a query: its orbit_distance calls are its exact evaluations
    with span(tracer, QUERY_SPAN if kind == "db-query" else "bench.command"):
        return speed.run_child([sys.executable, str(CHILD), "cli", trace_out, *argv], out.parent)


def cli_check(kind: str, argv, out: Path, trace_out, speed, tracer, proc) -> bool:
    """Exit code 0, and each command's output within the paper's bounds."""
    if proc.returncode != 0:
        return False
    if kind == "db-query":
        rows = [line.split(",") for line in proc.stdout.splitlines() if line.strip()]
        if len(rows) != SEARCH_K or any(len(r) != 3 for r in rows):
            return False
        for _, emb, exact in rows:
            e, f = float(exact), float(emb)
            if not e - REL_TOL * max(1.0, e) <= f <= SQRT2 * e + REL_TOL * max(1.0, e):
                return False
        return True
    report = json.loads((out / "report.json").read_text())
    tol = REL_TOL
    if kind == "distortion":
        tri = report["ratio_stats"]["triangle_embedding"]
        sides = report["ratio_stats"]["side_lengths"]
        return 1 - tol <= tri["min"] and tri["max"] <= SQRT2 + tol and sides["max"] <= SQRT3 + tol
    if kind == "classify":
        rates = report["rates"]["misclassification"]
        zero = report["rates"]["noise_grid"].index(0.0)
        return all(0 <= r <= 1 for v in rates.values() for r in v) and rates["exact"][zero] == 0
    return report["ratio_stats"]["reduced"]["min"] > 0


def _cli_pass(workdir: Path, seeds, tally: Tally, tracer=None, **stop):
    """Run cycles of the commands.  Returns (span, trace file) per traced
    command, to graft once the pass is over, the indices of completed ops
    by command, and the largest peak RSS of a command process."""
    grafts = []
    per_kind: dict[str, list[int]] = {}
    rss = [0.0]

    def step(i):
        kind, cycle = COMMANDS[i % len(COMMANDS)], i // len(COMMANDS)
        out = workdir / kind
        trace_out = "-"
        if tracer is not None:
            trace_out = str(workdir / f"spans{i}.json")
            grafts.append((len(tracer.names), Path(trace_out)))
        argv = cli_argv(kind, cycle, seeds, workdir, out)
        child = tally.run(cli_op, cli_check, kind, argv, out, trace_out, tally.speed, tracer)
        if child is not None:
            per_kind.setdefault(kind, []).append(len(tally.latencies_ns) - 1)
            rss.append(child.peak_rss_mb)

    closed_loop(step, len(COMMANDS), **stop)
    return grafts, per_kind, max(rss)


def run_cli(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    speed = Speedometer()
    seeds = _cli_files(seed, workdir)
    child_setup(speed, workdir, "import-cli")  # compiles bytecode once, so every timed import reads it
    setup = [child_setup(speed, workdir, "import-cli") for _ in range(SETUP_REPEATS)]
    if not trace:
        tally = Tally(speed, 0.0)
        _, per_kind, peak_rss_mb = _cli_pass(workdir, seeds, tally, seconds=seconds, rounds=CLI_MIN_CYCLES)
        scaled = tally.scaled_ns()
        extra = {}
        for kind, ops in per_kind.items():
            name = kind.replace("-", "_")
            extra[f"{name}_s"] = (statistics.median(scaled[j] for j in ops) / 1e9, "s")
            extra[f"raw_{name}_s"] = (statistics.median(tally.latencies_ns[j] for j in ops) / 1e9, "s")
        outcome = Outcome(tally, peak_rss_mb=peak_rss_mb, extra=extra)
        return setup_samples(outcome, setup)

    def traced_pass(tally, tracer):
        grafts, _, _ = _cli_pass(workdir, seeds, tally, tracer, rounds=1)
        if tracer is None:
            return
        for idx, path in grafts:
            tracer.graft(json.loads(path.read_text()), idx)
        # determinism: the same experiment and seed again, byte for byte
        again = workdir / "again"
        argv = cli_argv("distortion", 0, seeds, workdir, again)
        proc = cli_op("distortion", argv, again, "-", speed, None)
        same = proc.returncode == 0 and (again / "report.json").read_bytes() == (
            workdir / "distortion" / "report.json"
        ).read_bytes()
        tally.untimed_check(same, "determinism: one seed gave two different report.json files")

    return setup_samples(_traced(traced_pass, speed, 0.0, cli_inputs, seed), setup)


# ---------------------------------------------------------------------------


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _traced(run_pass, speed: Speedometer, pad: float, generate, seed: int) -> Outcome:
    """Run one fixed pass untraced, then the same pass traced, so the
    difference is the tracing overhead; then probe the generator."""
    plain = Tally(speed, pad)
    run_pass(plain, None)
    tracer = Tracer()
    traced = Tally(speed, pad)
    tracer.install()
    try:
        run_pass(traced, tracer)
    finally:
        tracer.uninstall()
    probe_generator(traced, generate, seed)
    untraced_s, traced_s = sum(plain.scaled_ns()) / 1e9, sum(traced.scaled_ns()) / 1e9
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.errors += plain.errors
    extra = {
        "untraced_pass_s": (untraced_s, "s"),
        "traced_pass_s": (traced_s, "s"),
        "trace_overhead_frac": (traced_s / untraced_s - 1.0, "1"),
    }
    return Outcome(traced, extra=extra, tracer=tracer)


WORKLOADS = {"pairs": run_pairs, "search": run_search, "cli": run_cli}
