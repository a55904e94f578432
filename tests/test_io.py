import json
import os

import numpy as np
import pytest

from orbitdist import GroupAction, ShapeDatabase
from orbitdist.io import (
    ParseError,
    atomic_write_text,
    load_database,
    matrix_from_json,
    read_matrix,
    save_database,
    write_matrix,
)


class TestMatrixRoundTrip:
    def test_real_csv_exact(self, rng, tmp_path):
        m = rng.standard_normal((3, 5)) * 10 ** rng.integers(-8, 8)
        path = tmp_path / "m.csv"
        write_matrix(path, m)
        np.testing.assert_array_equal(read_matrix(path), m)

    def test_complex_json_exact(self, rng, tmp_path):
        m = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        path = tmp_path / "m.json"
        write_matrix(path, m)
        np.testing.assert_array_equal(read_matrix(path), m)

    def test_awkward_values_round_trip(self, tmp_path):
        m = np.array([[1e-300, -1e308], [np.pi, 1 / 3]])
        path = tmp_path / "m.csv"
        write_matrix(path, m)
        np.testing.assert_array_equal(read_matrix(path), m)


class TestMatrixParsing:
    def test_csv_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,x,6\n")
        with pytest.raises(ParseError, match="row 2, column 2"):
            read_matrix(path)

    def test_csv_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ParseError, match="row 2"):
            read_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            read_matrix(path)

    def test_json_shape_mismatch(self):
        with pytest.raises(ParseError, match="shape"):
            matrix_from_json({"re": [[1.0, 2.0]], "im": [[1.0]]})

    def test_json_bad_keys(self):
        with pytest.raises(ParseError, match="re"):
            matrix_from_json({"real": [[1.0]]})

    def test_json_ragged(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"re": [[1, 2], [3]], "im": [[0, 0], [0, 0]]}')
        with pytest.raises(ParseError, match="row 2"):
            read_matrix(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            read_matrix(path)


class TestDatabaseFiles:
    def build(self, rng, complex_entries=False):
        group = GroupAction.UNITARY if complex_entries else GroupAction.EUCLIDEAN
        records = []
        for i in range(6):
            m = rng.standard_normal((2, 3))
            if complex_entries:
                m = m + 1j * rng.standard_normal((2, 3))
            records.append((f"id{i}", m))
        return ShapeDatabase(group, records)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_round_trip(self, rng, tmp_path, complex_entries):
        db = self.build(rng, complex_entries)
        path = tmp_path / "db.jsonl"
        save_database(path, db)
        loaded = load_database(path)
        assert loaded.ids == db.ids
        assert loaded.group == db.group
        assert loaded.feature_map == db.feature_map
        for a, b in zip(loaded.matrices, db.matrices):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded.features, db.features)

    def test_header_first_line(self, rng, tmp_path):
        path = tmp_path / "db.jsonl"
        save_database(path, self.build(rng))
        first = json.loads(path.read_text().splitlines()[0])
        assert set(first) == {"group", "n", "l", "feature_map"}

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
    def test_empty_file(self, tmp_path, text):
        path = tmp_path / "db.jsonl"
        path.write_text(text)
        with pytest.raises(ParseError, match="^" + str(path) + ": empty database file$"):
            load_database(path)

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "db.jsonl"
        path.write_text('{"group": "E", "n": 2, "l": 3}\n')
        with pytest.raises(ParseError, match="feature_map"):
            load_database(path)

    def test_bad_record_line(self, tmp_path):
        path = tmp_path / "db.jsonl"
        path.write_text(
            '{"group": "E", "n": 2, "l": 3, "feature_map": "full"}\n{"id": "a"}\n'
        )
        with pytest.raises(ParseError, match="line 2"):
            load_database(path)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("[1]\n", "header must be a JSON object"),
            ('{"group": "Z", "n": 2, "l": 3, "feature_map": "full"}\n', "unknown group 'Z'"),
            ('{"group": "E", "n": 2, "l": 3, "feature_map": "full"}\n5\n', "line 2"),
            ('{"group": "E", "n": "x", "l": 3, "feature_map": "full"}\n', "must be integers"),
            ('{"group": "E", "n": 2, "l": null, "feature_map": "full"}\n', "must be integers"),
            ('{"group": "E", "n": 2.7, "l": 3, "feature_map": "full"}\n', "must be integers"),
            ('{"group": "E", "n": "2", "l": 3, "feature_map": "full"}\n', "must be integers"),
            ('{"group": "E", "n": 2, "l": true, "feature_map": "full"}\n', "must be integers"),
            ('{"group": "E", "n": Infinity, "l": 3, "feature_map": "full"}\n', "must be integers"),
        ],
    )
    def test_malformed_lines_are_parse_errors(self, tmp_path, text, match):
        path = tmp_path / "db.jsonl"
        path.write_text(text)
        with pytest.raises(ParseError, match=match):
            load_database(path)

    @pytest.mark.parametrize(
        "grid",
        [
            [[1, 2, True], [4, 5, 6]],
            [[1, 2, None], [4, 5, 6]],
            [[1, 2, "3"], [4, 5, 6]],
            [[1, 2, [3]], [4, 5, 6]],
            [[1, 2], [4, 5, 6]],
            [[1, 2, 3], 4],
            [1, 2, 3],
            [],
            7,
            "abc",
            {"re": [[1, 2, 3], [4, 5, 6]]},
            [[10**400, 2, 3], [4, 5, 6]],
        ],
    )
    @pytest.mark.parametrize("after_good", [False, True])
    @pytest.mark.parametrize("then_bad_json", [False, True])
    def test_bad_record_matrix_named_by_its_line(self, tmp_path, grid, after_good, then_bad_json):
        # the records' matrices are checked in one pass; a bad one is named
        # as matrix_from_json names it, before any bad line after it
        header = '{"group": "E", "n": 2, "l": 3, "feature_map": "full"}'
        good = [json.dumps({"id": "a", "matrix": [[1, 2, 3], [4, 5, 6]]})] * after_good
        lines = [header, *good, json.dumps({"id": "b", "matrix": grid})] + ["{not json"] * then_bad_json
        path = tmp_path / "db.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as want:
            matrix_from_json(grid, f"{path}:line {2 + after_good}")
        with pytest.raises(ParseError) as got:
            load_database(path)
        assert str(got.value) == str(want.value)

    def test_whole_float_header_sizes_load(self, tmp_path):
        header = '{"group": "E", "n": 2.0, "l": 3, "feature_map": "full"}'
        rec = json.dumps({"id": "a", "matrix": [[1, 2, 3], [4, 5, 6]]})
        path = tmp_path / "db.jsonl"
        path.write_text(f"{header}\n{rec}\n")
        assert (load_database(path).n, load_database(path).l) == (2, 3)

    def test_duplicate_ids_rejected(self, tmp_path):
        header = '{"group": "E", "n": 2, "l": 3, "feature_map": "full"}'
        rec = json.dumps({"id": "a", "matrix": [[1, 2, 3], [4, 5, 6]]})
        path = tmp_path / "db.jsonl"
        path.write_text(f"{header}\n{rec}\n{rec}\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_database(path)

    def test_header_shape_must_match_records(self, tmp_path):
        header = '{"group": "E", "n": 2, "l": 4, "feature_map": "full"}'
        rec = json.dumps({"id": "a", "matrix": [[1, 2, 3], [4, 5, 6]]})
        path = tmp_path / "db.jsonl"
        path.write_text(f"{header}\n{rec}\n")
        with pytest.raises(ParseError, match="header shape"):
            load_database(path)


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


class TestAtomicWrite:
    """Files get the mode ``open(path, "w")`` would give them."""

    def test_new_file_gets_the_umask_mode(self, rng, tmp_path, umask_022):
        atomic_write_text(tmp_path / "a.txt", "x\n")
        write_matrix(tmp_path / "m.csv", rng.standard_normal((2, 3)))
        save_database(tmp_path / "db.jsonl", ShapeDatabase(GroupAction.EUCLIDEAN, [("a", np.eye(2, 3))]))
        for name in ("a.txt", "m.csv", "db.jsonl"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o644
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "db.jsonl", "m.csv"]

    def test_replaced_file_keeps_its_mode(self, tmp_path, umask_022):
        path = tmp_path / "a.txt"
        path.write_text("old\n")
        path.chmod(0o640)
        atomic_write_text(path, "new\n")
        assert path.read_text() == "new\n" and path.stat().st_mode & 0o777 == 0o640

    def test_failed_write_leaves_the_old_bytes(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "lone \ud800 surrogate")
        assert path.read_text() == "old\n" and [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_failed_rename_onto_a_directory_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(OSError):
            atomic_write_text(tmp_path / "d", "x\n")
        assert [p.name for p in tmp_path.iterdir()] == ["d"] and not any((tmp_path / "d").iterdir())
