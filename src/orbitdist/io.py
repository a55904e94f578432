"""File formats: matrices as CSV/JSON, databases as JSON lines.

Real matrices are CSV with one row per matrix row; complex matrices are
JSON objects ``{"re": [[...]], "im": [[...]]}``.  A database file starts
with a header line recording the group, shape, and feature map, followed
by one record per line.  CSV decimals carry 17 significant digits and
JSON floats use shortest round-trip notation, so writing then reading
reproduces every value exactly.  Files are written atomically (temp file
plus rename).
"""
from __future__ import annotations

import json
import os
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import OrbitDistError
from .metrics import GroupAction

if TYPE_CHECKING:
    from .search import ShapeDatabase


class ParseError(OrbitDistError):
    """A file could not be parsed; the message carries the position."""


def fmt17(x: float) -> str:
    return f"{float(x):.17g}"


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it and a
    rename, with the mode ``open(path, "w")`` would give: an existing
    file's, and 0o666 less the umask for a new one, which ``os.open``
    applies, so the process umask is neither read nor set.  On failure the
    temp file is removed and ``path`` keeps its old bytes."""
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        if path.exists():
            os.chmod(tmp, path.stat().st_mode & 0o777)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path) -> str:
    """The text of a file, which must be UTF-8; ParseError names it
    otherwise."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _parse_csv_matrix(text: str, path) -> np.ndarray:
    rows = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty matrix file")
    width = None
    for i, line in enumerate(lines):
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ParseError(
                f"{path}: row {i + 1} has {len(fields)} columns, expected {width}"
            )
        row = []
        for j, f in enumerate(fields):
            try:
                row.append(float(f))
            except ValueError:
                raise ParseError(
                    f"{path}: row {i + 1}, column {j + 1}: cannot parse {f.strip()!r}"
                ) from None
        rows.append(row)
    return np.array(rows)


def _grid_from_json(value, path, name: str) -> np.ndarray:
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise ParseError(f"{path}: {name} must be a nonempty list of rows")
    width = len(value[0])
    for i, row in enumerate(value):
        if len(row) != width:
            raise ParseError(
                f"{path}: {name} row {i + 1} has {len(row)} columns, expected {width}"
            )
        for j, x in enumerate(row):
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise ParseError(f"{path}: {name} row {i + 1}, column {j + 1}: not a number")
    try:
        return np.array(value, dtype=float)
    except OverflowError:
        raise ParseError(f"{path}: {name} holds an integer too large for a double") from None


def matrix_from_json(value, path="<json>") -> np.ndarray:
    """Matrix from a decoded JSON value: nested array (real) or re/im object."""
    if isinstance(value, dict):
        if set(value) != {"re", "im"}:
            raise ParseError(f"{path}: complex matrix object must have keys 're' and 'im'")
        re = _grid_from_json(value["re"], path, "re")
        im = _grid_from_json(value["im"], path, "im")
        if re.shape != im.shape:
            raise ParseError(f"{path}: 're' shape {re.shape} != 'im' shape {im.shape}")
        return re + 1j * im
    return _grid_from_json(value, path, "matrix")


def matrix_to_json(m: np.ndarray):
    a = np.asarray(m)
    if np.iscomplexobj(a):
        return {"re": a.real.tolist(), "im": a.imag.tolist()}
    return a.tolist()


def read_matrix(path) -> np.ndarray:
    """Read a matrix file, sniffing CSV (real) versus JSON (complex)."""
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        # ValueError: a JSON syntax error, or an integer too long for
        # Python to convert
        try:
            value = json.loads(text)
        except ValueError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
        return matrix_from_json(value, path)
    return _parse_csv_matrix(text, path)


def write_matrix(path, m) -> None:
    a = np.asarray(m)
    if np.iscomplexobj(a):
        atomic_write_text(path, json.dumps(matrix_to_json(a)) + "\n")
    else:
        lines = [",".join(fmt17(x) for x in row) for row in a]
        atomic_write_text(path, "\n".join(lines) + "\n")


def save_database(path, db: ShapeDatabase) -> None:
    header = {
        "group": db.group.value,
        "n": int(db.n),
        "l": int(db.l),
        "feature_map": db.feature_map,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for rid, m in zip(db.ids, db.matrices):
        lines.append(json.dumps({"id": rid, "matrix": matrix_to_json(m)}, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_database(path) -> ShapeDatabase:
    lines = [ln for ln in _read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty database file")
    # ValueError, here and for each record: a JSON syntax error, or an
    # integer too long for Python to convert
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise ParseError(f"{path}: line 1: invalid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ParseError(f"{path}: line 1: header must be a JSON object")
    for key in ("group", "n", "l", "feature_map"):
        if key not in header:
            raise ParseError(f"{path}: header is missing {key!r}")
    try:
        group = GroupAction(header["group"])
    except ValueError:
        raise ParseError(f"{path}: header has unknown group {header['group']!r}") from None
    from .features import FULL, REDUCED
    from .search import ShapeDatabase

    if header["feature_map"] not in (FULL, REDUCED):
        raise ParseError(f"{path}: header has unknown feature_map {header['feature_map']!r}")
    shape = (header["n"], header["l"])
    # whole numbers only: int() would truncate 2.7 and parse the string "2"
    if not all(type(v) is int or (type(v) is float and v.is_integer()) for v in shape):
        raise ParseError(f"{path}: header n and l must be integers, got {shape[0]!r} and {shape[1]!r}")
    shape = (int(shape[0]), int(shape[1]))
    ids, grids = [], []
    for i, line in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(line)
        except ValueError as exc:
            error = f"line {i}: invalid JSON: {exc}"
        else:
            if isinstance(obj, dict) and "id" in obj and "matrix" in obj:
                ids.append(str(obj["id"]))
                grids.append(obj["matrix"])
                continue
            error = f"line {i}: record must be an object with 'id' and 'matrix'"
        _matrices(grids, path)  # a bad matrix on an earlier line is named first
        raise ParseError(f"{path}: {error}")
    matrices = _matrices(grids, path)
    # before any feature is built: a reduced map would refuse the records'
    # shape without naming the file
    if ids and matrices[0].shape != shape:
        raise ParseError(
            f"{path}: header shape ({header['n']}, {header['l']}) does not match records"
        )
    return ShapeDatabase(group, list(zip(ids, matrices)), header["feature_map"])


def _matrices(grids: list, path):
    """The matrices of the decoded JSON ``grids`` of a database's records,
    grid k from line k + 2 of ``path``.  When all are real and of one
    shape they are checked in one pass, the type of every entry, and
    converted as one ``(N, n, l)`` stack.  Otherwise each is read by
    :func:`matrix_from_json`, which names the first bad one."""
    try:
        if set(map(type, chain.from_iterable(chain.from_iterable(grids)))) <= {int, float}:
            stack = np.array(grids, dtype=float)
            if stack.ndim == 3:
                return stack
    except (TypeError, ValueError, OverflowError):
        pass
    return [matrix_from_json(g, f"{path}:line {k + 2}") for k, g in enumerate(grids)]
