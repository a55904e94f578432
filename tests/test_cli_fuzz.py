"""Generated inputs against the CLI error contract.

Whatever the matrix files, database files and experiment configs hold,
``orbitdist`` must end with an exit code in 0..6, print exactly one
``error:`` line on stderr when that code is nonzero, and never let an
exception (a traceback) escape ``main``.  Sizes stay small, and the
out-of-range ones are rejected before anything is allocated, so no case
needs much memory or time.  The experiment configs also go straight to the
Python entries, which may only return a report or raise
ConfigInvalidError or DimensionHypothesisError, as the CLI would, and to
the ExperimentConfig constructor, which may only raise ConfigInvalidError.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import pytest

from orbitdist import (
    ConfigInvalidError,
    DimensionHypothesisError,
    ExperimentConfig,
    classification_experiment,
    distortion_experiment,
    lower_constant_survey,
)
from orbitdist.cli import main
from orbitdist.experiments import _DEFAULT_CONFIGS, MAX_DB_SIZE, MAX_L, MAX_PAIRS

FUZZ = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

GROUPS = ["O", "E", "U", "F"]

# numbers that a JSON file may hold where a matrix entry or a size belongs
odd_numbers = st.sampled_from([0, -1, 2.5, 1e308, 10**400, float("nan"), float("inf")])
entries = st.one_of(
    st.floats(-10, 10, allow_nan=False), st.integers(-3, 3), odd_numbers, st.booleans(), st.none()
)


def grid(n, l, values=entries):
    return st.lists(st.lists(values, min_size=l, max_size=l), min_size=n, max_size=n)


@st.composite
def matrices(draw):
    """A decoded matrix file value: a real grid, or a re/im object (now and
    then with mismatched or missing parts, or ragged rows)."""
    n, l = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    real = draw(grid(n, l, st.floats(-10, 10, allow_nan=False) | entries))
    kind = draw(st.sampled_from(["real", "complex", "ragged", "bad object"]))
    if kind == "complex":
        return {"re": real, "im": draw(grid(n, draw(st.sampled_from([l, l + 1])), entries))}
    if kind == "ragged":
        return real + [real[0] + [1.0]]
    if kind == "bad object":
        return {"re": real}
    return real


def csv_text(value) -> str:
    """A CSV matrix file for a real grid; a JSON file otherwise."""
    if isinstance(value, list) and all(isinstance(r, list) for r in value):
        return "\n".join(",".join(str(x) for x in row) for row in value) + "\n"
    return json.dumps(value)


file_texts = st.one_of(
    matrices().map(csv_text),
    matrices().map(json.dumps),
    st.sampled_from(["", "\n", "1,2\n3\n", "a,b\n", "{broken", "[]", "{}", "1e999,1\n"]),
)

sizes = st.one_of(st.integers(1, 6), odd_numbers, st.sampled_from(["3", None, [2]]))


@st.composite
def database_texts(draw):
    header = {
        "group": draw(st.sampled_from(GROUPS + ["X", None])),
        "n": draw(sizes),
        "l": draw(sizes),
        "feature_map": draw(st.sampled_from(["full", "reduced", "other"])),
    }
    if draw(st.booleans()):
        del header[draw(st.sampled_from(sorted(header)))]
    lines = [json.dumps(header)]
    for _ in range(draw(st.integers(0, 4))):
        record = {"id": draw(st.sampled_from(["a", "b", "c", 7])), "matrix": draw(matrices())}
        lines.append(json.dumps(record) if draw(st.integers(0, 9)) else "{not json")
    return "\n".join(lines) + "\n"


counts = st.one_of(st.integers(-1, 12), odd_numbers, st.sampled_from([None, "4", 10**15]))
# the study sizes are always given: their defaults take about a second
configs = st.fixed_dictionaries(
    {
        "n_pairs": st.one_of(counts, st.just(MAX_PAIRS + 1)),
        "db_size": st.one_of(counts, st.just(MAX_DB_SIZE + 1)),
        "n_draws": counts,
    },
    optional={
        "noise_grid": st.one_of(
            st.lists(st.floats(-0.1, 0.1, allow_nan=False), max_size=3), st.just(5)
        ),
        "maps": st.lists(
            st.sampled_from(["exact", "side_lengths", "triangle_embedding", "reduced"]), max_size=3
        ),
        "group": st.sampled_from(GROUPS + ["Q"]),
        "n": st.one_of(st.integers(-1, 3), odd_numbers),
        "l": st.one_of(st.integers(-1, 8), odd_numbers, st.just(MAX_L + 1)),
    },
)


def run(argv):
    """Exit code and stderr lines of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def check_contract(code, err):
    assert code in range(7)
    assert not any("Traceback" in line for line in err)
    if code:
        assert len(err) == 1 and err[0].startswith("error:"), err


@FUZZ
@given(
    command=st.sampled_from(["dist", "embed", "embed --reduced", "db-build", "db-build --reduced"]),
    group=st.sampled_from(GROUPS),
    texts=st.lists(file_texts, min_size=1, max_size=3),
)
# a JSON integer past the double range once escaped as an OverflowError
@example(command="embed", group="U", texts=[json.dumps({"re": [[10**400, 1]], "im": [[0, 0]]})])
def test_matrix_files(command, group, texts):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            paths.append(Path(tmp) / f"m{i}.txt")
            paths[-1].write_text(text)
        name, *flags = command.split()
        if name == "dist":
            argv = [name, "--group", group, str(paths[0]), str(paths[-1])]
        elif name == "embed":
            argv = [name, "--group", group, *flags, str(paths[0])]
        else:
            argv = [name, "--group", group, *flags, "--out", str(Path(tmp) / "db.jsonl")]
            argv += [str(p) for p in paths]
        check_contract(*run(argv))


@FUZZ
@given(db=database_texts(), query=file_texts, k=st.integers(0, 3), verify=st.booleans())
# an infinite header size and an integer past the double range in a record
# once escaped as OverflowErrors
@example(
    db=json.dumps({"group": "E", "n": float("inf"), "l": 3, "feature_map": "full"}),
    query="1,2,3\n4,5,6\n", k=1, verify=False,
)
@example(
    db=json.dumps({"group": "E", "n": 1, "l": 2, "feature_map": "full"})
    + "\n" + json.dumps({"id": "a", "matrix": [[10**400, 1]]}),
    query="1,2\n", k=1, verify=False,
)
# header sizes that int() once read as 2: a parse error, exit 2
@example(
    db=json.dumps({"group": "E", "n": 2.7, "l": 3, "feature_map": "full"})
    + "\n" + json.dumps({"id": "a", "matrix": [[1, 2, 3], [4, 5, 6]]}),
    query="1,2,3\n4,5,6\n", k=1, verify=True,
)
@example(
    db=json.dumps({"group": "E", "n": "2", "l": 3, "feature_map": "full"})
    + "\n" + json.dumps({"id": "a", "matrix": [[1, 2, 3], [4, 5, 6]]}),
    query="1,2,3\n4,5,6\n", k=1, verify=True,
)
def test_database_files(db, query, k, verify):
    with tempfile.TemporaryDirectory() as tmp:
        db_path, query_path = Path(tmp) / "db.jsonl", Path(tmp) / "q.txt"
        db_path.write_text(db)
        query_path.write_text(query)
        argv = ["db-query", str(db_path), str(query_path), "-k", str(k)]
        code, err = run(argv + (["--verify"] if verify else []))
        check_contract(code, err)
        header = json.loads(db.splitlines()[0])
        sizes = [header.get(key) for key in ("n", "l")]
        if any(isinstance(v, (str, bool)) or (isinstance(v, float) and not v.is_integer()) for v in sizes):
            assert code == 2, (sizes, err)


# an integer past Python's 4300-digit limit, which json.loads refuses with a
# plain ValueError
LONG = "1" + "0" * 5000
HEADER = '{"group": "E", "n": 1, "l": 2, "feature_map": "full"}'


@pytest.mark.parametrize(
    "command, text",
    [
        ("dist", '{"re": [[' + LONG + ', 2]], "im": [[0, 0]]}'),
        ("db-query", HEADER.replace('"n": 1', '"n": ' + LONG)),
        ("db-query", HEADER + '\n{"id": "a", "matrix": [[' + LONG + ', 1]]}\n'),
    ],
    ids=["matrix", "database-header", "database-record"],
)
def test_integers_too_long_to_convert(tmp_path, command, text):
    path, query = tmp_path / "in.json", tmp_path / "q.csv"
    path.write_text(text)
    query.write_text("1,2\n")
    argv = [command, "--group", "U", str(path), str(path)]
    if command == "db-query":
        argv = [command, str(path), str(query)]
    code, err = run(argv)
    assert code == 2 and len(err) == 1 and err[0].startswith(f"error: {path}"), err


@st.composite
def not_utf8(draw):
    """The bytes of a drawn file text with a byte sequence that UTF-8
    refuses spliced in anywhere."""
    text = draw(file_texts).encode()
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3(", b"\xed\xa0\x80"])) + text[at:]


# which file of which command is not UTF-8; the other files are valid
NOT_UTF8_CASES = ["dist A", "dist B", "embed", "db-build", "db-query database", "db-query query"]


@FUZZ
@given(case=st.sampled_from(NOT_UTF8_CASES), blob=not_utf8())
@example(case="dist A", blob=b"\xff\xfe1,2\n")
@example(case="db-query database", blob=b"\xff\xfe1,2\n")
def test_files_not_utf8(case, blob):
    # a parse error, exit 2, on one error line that names the file
    with tempfile.TemporaryDirectory() as tmp:
        bad, good, db = Path(tmp) / "bad.csv", Path(tmp) / "good.csv", Path(tmp) / "db.jsonl"
        bad.write_bytes(blob)
        good.write_text("1,2\n")
        db.write_text(HEADER + '\n{"id": "a", "matrix": [[1, 2]]}\n')
        argv = {
            "dist A": ["dist", "--group", "E", str(bad), str(good)],
            "dist B": ["dist", "--group", "E", str(good), str(bad)],
            "embed": ["embed", "--group", "E", str(bad)],
            "db-build": ["db-build", "--group", "E", "--out", str(db), str(good), str(bad)],
            "db-query database": ["db-query", str(bad), str(good)],
            "db-query query": ["db-query", str(db), str(bad)],
        }[case]
        code, err = run(argv)
        assert code == 2 and len(err) == 1 and err[0].startswith(f"error: {bad}: not UTF-8"), err


def run_experiment(kind, seed, config):
    """Exit code and stderr lines of ``orbitdist experiment`` on a config
    file holding ``config``; checks that a report is written on success
    only."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["experiment", kind, "--seed", str(seed), "--config", str(cfg), "--out", tmp]
        code, err = run(argv)
        assert (Path(tmp) / "report.json").exists() == (code == 0)
    return code, err


experiment_runs = dict(
    kind=st.sampled_from(["distortion", "classify", "lower-constant"]),
    seed=st.sampled_from([0, 7, -1, 2**64]),
    config=configs,
    unread=st.booleans(),
)


def drawn_config(kind, config, unread):
    # half the configs hold only keys the study reads, so that their values
    # reach its checks
    if unread:
        return config
    return {key: value for key, value in config.items() if key in _DEFAULT_CONFIGS[kind]}


@FUZZ
@given(**experiment_runs)
def test_experiment_configs(kind, seed, config, unread):
    config = drawn_config(kind, config, unread)
    code, err = run_experiment(kind, seed, config)
    check_contract(code, err)
    if set(config) - set(_DEFAULT_CONFIGS[kind]):
        # a key the study does not read is refused
        assert code == 6, err


@FUZZ
@given(**experiment_runs)
# whole-number floats once reached numpy unconverted, and a group name
# once reached the survey as a string
@example(kind="classify", seed=0, config={"n_pairs": 1, "db_size": 5.0, "n_draws": 2.0}, unread=False)
@example(
    kind="lower-constant", seed=0,
    config={"n_pairs": 3, "db_size": 1, "n_draws": 1, "group": "Q"}, unread=False,
)
@example(
    kind="classify", seed=0,
    config={"n_pairs": 1, "db_size": 2, "n_draws": 1, "noise_grid": 5}, unread=False,
)
# a report of each study, and a dimension error
@example(kind="distortion", seed=7, config={"n_pairs": 5, "db_size": 1, "n_draws": 1}, unread=False)
@example(
    kind="lower-constant", seed=7,
    config={"n_pairs": 4, "db_size": 1, "n_draws": 1, "group": "U", "n": 2, "l": 5}, unread=False,
)
@example(
    kind="lower-constant", seed=0,
    config={"n_pairs": 4, "db_size": 1, "n_draws": 1, "group": "O", "n": 2, "l": 3}, unread=False,
)
def test_experiment_entries(kind, seed, config, unread):
    # the drawn config as it is to the constructor, then over the CLI's
    # defaults to the Python entry; the survey takes its fields as arguments
    config = drawn_config(kind, config, unread)
    try:
        ExperimentConfig(seed=seed, **config)
    except ConfigInvalidError:
        pass
    data = {**_DEFAULT_CONFIGS[kind], **config}
    try:
        if kind == "lower-constant":
            lower_constant_survey(data["group"], data["n"], data["l"], data["n_pairs"], seed)
        elif kind == "distortion":
            distortion_experiment(ExperimentConfig(seed=seed, **data))
        else:
            classification_experiment(ExperimentConfig(seed=seed, **data))
        code = 0
    except ConfigInvalidError:
        code = 6
    except DimensionHypothesisError:
        code = 4
    if set(config) <= set(_DEFAULT_CONFIGS[kind]):
        assert code == run_experiment(kind, seed, config)[0]
