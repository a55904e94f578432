"""Fresh-interpreter helper started by run.py; prints one JSON line.

    python3 bench/child.py import-cli
        time ``import orbitdist.cli`` (the cold start every command pays)
    python3 bench/child.py import-pairs SEED
        time ``import orbitdist`` plus the first call of each pairs op kind
    python3 bench/child.py cli TRACE_OUT ARG...
        run ``orbitdist ARG...`` through ``orbitdist.cli.main``; unless
        TRACE_OUT is ``-``, trace the library layers and write the spans
        there.  Exits with main's return code.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def _import_cli() -> None:
    t0 = perf_counter()
    import orbitdist.cli  # noqa: F401

    print(json.dumps({"setup_s": perf_counter() - t0}))


def _import_pairs(seed: int) -> None:
    t0 = perf_counter()
    import orbitdist  # noqa: F401

    t_import = perf_counter() - t0
    import workloads

    first = workloads.pairs_first_pairs(seed)
    t1 = perf_counter()
    for group, a, b in first:
        workloads.pairs_op(group, a, b, workloads.pairs_reducer(group, a))
    print(json.dumps({"setup_s": t_import + perf_counter() - t1}))


def _cli(trace_out: str, argv: list[str]) -> int:
    import orbitdist.cli

    if trace_out == "-":
        return orbitdist.cli.main(argv)
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return orbitdist.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(trace_out)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "import-cli":
        _import_cli()
    elif mode == "import-pairs":
        _import_pairs(int(sys.argv[2]))
    elif mode == "cli":
        sys.exit(_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
