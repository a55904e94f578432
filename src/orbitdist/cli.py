"""Command-line frontend.

Subcommands: dist, embed, db-build, db-query, experiment.  Parse failures
exit 2, shape mismatches 3, unsatisfiable reduction dimensions 4, empty
databases 5, invalid experiment configurations 6, and any other invalid
input (such as a duplicate record id, k < 1, or a matrix file that parses
but holds NaN or Inf entries) 1; messages go to stderr.
All randomness flows from --seed.

Each command imports the modules it runs when it runs, so a process loads
only those: at module level this file imports what the parser and the exit
codes need.

Process memory policy.  :func:`main` owns its process, so under glibc it
sets the allocator's policy once, before it parses its arguments
(:func:`_keep_heap`): ``M_TRIM_THRESHOLD`` to 2**28, so freed heap stays
mapped, and ``M_MMAP_THRESHOLD`` to 2**25 (glibc's own 64-bit ceiling for
its dynamic threshold), so blocks below 32 MB come from that reusable
heap.  The experiments free numpy temporaries of 0.35 to 3 MB at the end
of every block; under glibc's defaults they went back to the kernel and
the next block faulted them in again.  On a 2-vCPU x86_64 machine with
glibc 2.36, a fresh ``experiment distortion`` at its defaults took 26k
minor page faults and 40 ms of system time, and ``classify`` 20k and
32 ms, against 4.5k for importing numpy and this module alone; with the
policy they take 6.3k and 6.6k, and 18 ms each.  Either setting alone
faults more: with the trim threshold alone ``classify`` takes 21k, with
the mmap threshold alone both take 30k or more.  Without glibc or its
``mallopt`` nothing is set.  The library never sets allocator state: a
program that imports it keeps its own policy.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConfigInvalidError,
    DimensionHypothesisError,
    EmptyDatabaseError,
    OrbitDistError,
    ShapeMismatchError,
)
from .io import ParseError, atomic_write_text, fmt17, read_matrix
from .metrics import GroupAction, _configuration, orbit_distance


def _fmt_entry(x) -> str:
    if isinstance(x, complex) or np.iscomplexobj(np.asarray(x)):
        z = complex(x)
        return f"{z.real:.17g}{z.imag:+.17g}j"
    return fmt17(x)


def _cmd_dist(args) -> int:
    group = GroupAction(args.group)
    # checked here too, so that an error names the file
    a = _configuration(group, read_matrix(args.file_a), args.file_a)
    b = _configuration(group, read_matrix(args.file_b), args.file_b, a.shape)
    d, alignment = orbit_distance(group, a, b)
    print(f"distance {d:.12g}")
    print("rotation " + " ".join(_fmt_entry(x) for x in np.ravel(alignment.rotation)))
    if group.quotients_translations:
        print("translation " + " ".join(_fmt_entry(x) for x in alignment.translation))
    return 0


def _map_name(group: GroupAction, m: np.ndarray, feature_map: str) -> str:
    from .features import MAP_TRIANGLE, REDUCED, _is_triangle

    if feature_map == REDUCED:
        return f"reduced_{group.name.lower()}"
    if _is_triangle(group, m):
        return MAP_TRIANGLE
    return f"{group.name.lower()}_embedding"


def _cmd_embed(args) -> int:
    from .features import FULL, REDUCED, _feature

    group = GroupAction(args.group)
    m = _configuration(group, read_matrix(args.file), args.file)
    feature_map = REDUCED if args.reduced else FULL
    coords = _feature(group, m, feature_map, args.file)
    row = ",".join(fmt17(x) for x in coords)
    if args.out:
        atomic_write_text(args.out, row + "\n")
        sidecar = {
            "group": group.value,
            "feature_map": feature_map,
            "map": _map_name(group, m, feature_map),
            "n": int(m.shape[0]),
            "l": int(m.shape[1]),
            "length": int(coords.shape[0]),
        }
        atomic_write_text(str(args.out) + ".json", json.dumps(sidecar, sort_keys=True) + "\n")
    else:
        print(row)
    return 0


def _cmd_db_build(args) -> int:
    from .features import FULL, REDUCED
    from .io import save_database
    from .search import ShapeDatabase

    group = GroupAction(args.group)
    if not args.inputs:
        raise EmptyDatabaseError("no input matrices given")
    records = [(Path(p).stem, read_matrix(p)) for p in args.inputs]
    db = ShapeDatabase(group, records, REDUCED if args.reduced else FULL)
    save_database(args.out, db)
    print(f"wrote {len(db)} records to {args.out}")
    return 0


def _cmd_db_query(args) -> int:
    from .io import load_database
    from .search import feature_nearest, verify

    db = load_database(args.db_file)
    query = read_matrix(args.query_file)
    results = feature_nearest(db, query, k=args.k)
    if args.verify:
        results = [verify(db, r, query) for r in results]
    for r in results:
        fields = [r.id, fmt17(r.embedded_distance)]
        if r.exact_orbit_distance is not None:
            fields.append(fmt17(r.exact_orbit_distance))
        print(",".join(fields))
    return 0


def _load_config(args):
    from .experiments import _DEFAULT_CONFIGS, ExperimentConfig, _require_read

    data = dict(_DEFAULT_CONFIGS[args.kind])
    if args.config:
        # ValueError: a JSON syntax error, a file that is not UTF-8, or an
        # integer too long for Python to convert
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigInvalidError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigInvalidError("config file must hold a JSON object")
        _require_read(args.kind, loaded)
        data.update(loaded)
    data["seed"] = args.seed
    return ExperimentConfig.from_dict(data)


def _distortion_csv(report) -> str:
    lines = ["map,bin_left,bin_right,count"]
    for name in sorted(report.histograms):
        h = report.histograms[name]
        for left, right, count in zip(h["edges"], h["edges"][1:], h["counts"]):
            lines.append(f"{name},{fmt17(left)},{fmt17(right)},{count}")
    return "\n".join(lines) + "\n"


def _classification_csv(report) -> str:
    lines = ["map,epsilon,rate"]
    grid = report.rates["noise_grid"]
    for name in sorted(report.rates["misclassification"]):
        for eps, rate in zip(grid, report.rates["misclassification"][name]):
            lines.append(f"{name},{fmt17(eps)},{fmt17(rate)}")
    return "\n".join(lines) + "\n"


def _lower_constant_csv(report) -> str:
    lines = ["statistic,value"]
    stats = report.ratio_stats["reduced"]
    for key in ("min", "max", "mean", "std"):
        lines.append(f"{key},{fmt17(stats[key])}")
    for q, v in sorted(stats["quantiles"].items(), key=lambda kv: float(kv[0])):
        lines.append(f"quantile_{q},{fmt17(v)}")
    return "\n".join(lines) + "\n"


def _print_summary(report) -> None:
    print(f"experiment {report.kind} (seed {report.seed})")
    for name in sorted(report.ratio_stats):
        s = report.ratio_stats[name]
        print(
            f"  {name}: ratios in [{s['min']:.4f}, {s['max']:.4f}], "
            f"mean {s['mean']:.4f}, std {s['std']:.4f}"
        )
    if report.rates:
        grid = report.rates["noise_grid"]
        for name in sorted(report.rates["misclassification"]):
            rates = report.rates["misclassification"][name]
            cells = ", ".join(f"{e:g}:{r:.3f}" for e, r in zip(grid, rates))
            print(f"  {name}: {cells}")


def _cmd_experiment(args) -> int:
    from .experiments import classification_experiment, distortion_experiment, lower_constant_survey

    cfg = _load_config(args)
    if args.kind == "distortion":
        report = distortion_experiment(cfg)
        csv_text = _distortion_csv(report)
    elif args.kind == "classify":
        report = classification_experiment(cfg)
        csv_text = _classification_csv(report)
    else:
        report = lower_constant_survey(cfg.group, cfg.n, cfg.l, cfg.n_pairs, cfg.seed)
        csv_text = _lower_constant_csv(report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "report.json", report.to_json() + "\n")
    atomic_write_text(out / f"{report.kind}.csv", csv_text)
    _print_summary(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitdist",
        description="Orbit distances, invariant embeddings, and nearest-orbit search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="orbit distance between two configuration files")
    p.add_argument("--group", required=True, choices=[g.value for g in GroupAction])
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("embed", help="flattened invariant feature of a configuration")
    p.add_argument("--group", required=True, choices=[g.value for g in GroupAction])
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--out")
    p.add_argument("file")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("db-build", help="build a database file from matrix files")
    p.add_argument("--group", required=True, choices=[g.value for g in GroupAction])
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("inputs", nargs="*")
    p.set_defaults(func=_cmd_db_build)

    p = sub.add_parser("db-query", help="nearest records for a query configuration")
    p.add_argument("db_file")
    p.add_argument("query_file")
    p.add_argument("-k", type=int, default=1)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_db_query)

    p = sub.add_parser("experiment", help="run a seeded experiment and write reports")
    p.add_argument("kind", choices=["distortion", "classify", "lower-constant"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_experiment)
    return parser


# exit code of each error kind; the first matching entry wins
_EXIT_CODES = (
    ((ParseError, OSError), 2),
    (ShapeMismatchError, 3),
    (DimensionHypothesisError, 4),
    (EmptyDatabaseError, 5),
    (ConfigInvalidError, 6),
    (OrbitDistError, 1),
)


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap() -> None:
    """Set the process memory policy of the module docstring: glibc's malloc
    keeps freed heap mapped and serves blocks below 32 MB from it.  Does
    nothing, and raises nothing, without glibc or its ``mallopt``."""
    try:
        # AttributeError: no os.confstr; ValueError: a C library that does
        # not know the name; OSError: one that knows it but is not glibc
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 28)
    mallopt(_M_MMAP_THRESHOLD, 1 << 25)


def main(argv=None) -> int:
    _keep_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OrbitDistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
