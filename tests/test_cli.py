import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from orbitdist import (
    GroupAction,
    ShapeDatabase,
    feature_vector,
    orbit_distance,
    reducer_for,
    triangle_embedding,
)
from orbitdist import cli, embeddings, search
from orbitdist.cli import main
from orbitdist.experiments import MAX_L
from orbitdist.io import load_database, read_matrix, save_database, write_matrix

SQRT2 = np.sqrt(2.0)
SQRT6 = np.sqrt(6.0)


def write_csv(path, m):
    write_matrix(path, np.asarray(m, dtype=float))
    return str(path)


class TestDist:
    def test_identical_files_give_zero(self, tmp_path, capsys):
        f = write_csv(tmp_path / "a.csv", [[1.0, 2.0], [3.0, 4.0]])
        assert main(["dist", "--group", "O", f, f]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("distance ")
        assert float(out.splitlines()[0].split()[1]) == pytest.approx(0.0, abs=1e-10)

    def test_counterexample_value_euclidean(self, tmp_path, capsys):
        eps = 0.01
        fa = write_csv(tmp_path / "a.csv", [[1, 0, -1], [0, 0, 0]])
        fb = write_csv(tmp_path / "b.csv", [[1, 0, -1], [-eps, 2 * eps, -eps]])
        assert main(["dist", "--group", "E", fa, fb]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[0].split()[1]) == pytest.approx(SQRT6 * eps, rel=1e-9)
        assert lines[1].startswith("rotation ")
        assert lines[2].startswith("translation ")

    def test_same_value_under_orthogonal_group(self, tmp_path, capsys):
        # this pair is already centered, so the translation quotient is idle
        eps = 0.01
        fa = write_csv(tmp_path / "a.csv", [[1, 0, -1], [0, 0, 0]])
        fb = write_csv(tmp_path / "b.csv", [[1, 0, -1], [-eps, 2 * eps, -eps]])
        assert main(["dist", "--group", "O", fa, fb]) == 0
        out = capsys.readouterr().out
        assert float(out.splitlines()[0].split()[1]) == pytest.approx(SQRT6 * eps, rel=1e-9)
        assert "translation" not in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,oops\n")
        good = write_csv(tmp_path / "g.csv", [[1.0, 2.0]])
        assert main(["dist", "--group", "O", str(bad), good]) == 2
        assert "row 1, column 2" in capsys.readouterr().err

    def test_shape_mismatch_exit_3(self, tmp_path, capsys):
        fa = write_csv(tmp_path / "a.csv", [[1.0, 2.0]])
        fb = write_csv(tmp_path / "b.csv", [[1.0, 2.0, 3.0]])
        assert main(["dist", "--group", "O", fa, fb]) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dist", "embed"])
    def test_field_error_names_the_file(self, tmp_path, capsys, command):
        fa = write_csv(tmp_path / "a.csv", [[1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
        fc = tmp_path / "c.json"
        write_matrix(fc, np.array([[1j, 2.0, 3.0], [0.0, 0.0, 1.0]]))
        argv = [command, "--group", "E"] + ([fa] if command == "dist" else []) + [str(fc)]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {fc} is complex")

    def test_huge_finite_pair(self, tmp_path, capsys):
        # A B* of this 1e156 triangle overflows unless the pair is scaled
        f = write_csv(tmp_path / "big.csv", [[1e156, 0.0, 0.0], [0.0, 0.0, 1e156]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["dist", "--group", "E", f, f]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        # zero to the round-off of the file's 1.4e156 norm
        assert float(captured.out.splitlines()[0].split()[1]) < 1e141

    @pytest.mark.parametrize(
        "group, a, b, what",
        [
            ("O", [[1, -1, 1], [-1, 1, -1]], [[1, 1, -1], [1, -1, -1]], "distance"),
            ("E", [[1, 1, 1], [1, 1, 1]], [[-1, -1, -1], [-1, -1, -1]], "translation"),
        ],
    )
    def test_result_beyond_float64_single_error_line(self, tmp_path, capsys, group, a, b, what):
        fa = write_csv(tmp_path / "a.csv", 1.5e308 * np.array(a, dtype=float))
        fb = write_csv(tmp_path / "b.csv", 1.5e308 * np.array(b, dtype=float))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["dist", "--group", group, fa, fb]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: the pair has a {what} too large for float64"]

    def test_complex_json_input(self, tmp_path, capsys):
        a = np.array([[1 + 1j, 0j], [0j, 1 - 1j]])
        pa = tmp_path / "a.json"
        write_matrix(pa, a)
        b = np.exp(0.7j) * a
        pb = tmp_path / "b.json"
        write_matrix(pb, b)
        assert main(["dist", "--group", "U", str(pa), str(pb)]) == 0
        out = capsys.readouterr().out
        assert float(out.splitlines()[0].split()[1]) == pytest.approx(0.0, abs=1e-10)

    # stdout of a complex pair, every entry as real and imaginary part
    COMPLEX_OUTPUT = {
        "U": [
            "distance 2.54833959578",
            "rotation 0.35168088718867369+0.4004487417599793j "
            "-0.52226488545608452-0.66573324104222065j "
            "-0.31678604603977656+0.78460688235798781j "
            "-0.22660522430066746+0.48237818515207309j",
        ],
        "F": [
            "distance 1.6801220088",
            "rotation 0.10670168345264733+0.069109904279434156j "
            "-0.84985845493471068-0.51144811902562004j "
            "-0.93614917842703704+0.32781593556329974j "
            "-0.11853202063599677+0.045952020685592301j",
            "translation 0.93274578904029781+0.4639987920887878j "
            "0.56325292536227312+0.55542064808358127j",
        ],
    }

    @pytest.mark.parametrize("group", list(COMPLEX_OUTPUT))
    def test_complex_pair_output(self, tmp_path, capsys, group):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        write_matrix(paths[0], np.array([[1 + 1j, 0.5, -0.25j], [0.25 - 0.5j, 1j, 2.0]]))
        write_matrix(paths[1], np.array([[0.5j, 1.0 - 0.5j, 0.25], [-1.0, 0.75 + 0.5j, 1j]]))
        assert main(["dist", "--group", group] + [str(p) for p in paths]) == 0
        assert capsys.readouterr().out.splitlines() == self.COMPLEX_OUTPUT[group]


@pytest.mark.parametrize("command", ["embed", "db-build", "dist"])
def test_zero_points_under_a_translation_quotient(tmp_path, capsys, command):
    f = tmp_path / "z.json"
    f.write_text('{"re": [[]], "im": [[]]}\n')
    argv = {
        "embed": ["embed", "--group", "F", str(f)],
        "db-build": ["db-build", "--group", "F", "--out", str(tmp_path / "db.jsonl"), str(f)],
        "dist": ["dist", "--group", "F", str(f), str(f)],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert err[0].endswith("has shape (1, 0); a configuration needs at least one column")


class TestEmbed:
    def test_zero_matrix_zero_row(self, tmp_path, capsys):
        f = write_csv(tmp_path / "z.csv", np.zeros((2, 3)))
        assert main(["embed", "--group", "O", f]) == 0
        row = capsys.readouterr().out.strip().split(",")
        assert len(row) == 6
        assert all(float(x) == 0.0 for x in row)

    def test_equilateral_triangle_coordinates(self, tmp_path, capsys):
        s = 2.0
        t = s * np.array([[0.0, 1.0, 0.5], [0.0, 0.0, np.sqrt(3) / 2]])
        f = write_csv(tmp_path / "t.csv", t)
        assert main(["embed", "--group", "E", f]) == 0
        vals = [float(x) for x in capsys.readouterr().out.strip().split(",")]
        np.testing.assert_allclose(vals, [0.0, 0.0, s], atol=1e-12)

    def test_out_file_and_sidecar(self, tmp_path):
        m = np.arange(8.0).reshape(2, 4)
        f = write_csv(tmp_path / "m.csv", m)
        out = tmp_path / "feat.csv"
        assert main(["embed", "--group", "O", "--out", str(out), f]) == 0
        vals = read_matrix(out).ravel()
        np.testing.assert_array_equal(vals, feature_vector(GroupAction.ORTHOGONAL, m))
        sidecar = json.loads((tmp_path / "feat.csv.json").read_text())
        assert sidecar == {
            "group": "O",
            "feature_map": "full",
            "map": "orthogonal_embedding",
            "n": 2,
            "l": 4,
            "length": 10,
        }

    @pytest.mark.parametrize(
        "group, m, flags, expected",
        [
            ("E", [[0.0, 1.0, 0.5], [0.0, 0.0, 2.0]], [], "triangle_embedding"),
            ("O", [[1.0, 2.0, 3.0, 4.0]], ["--reduced"], "reduced_orthogonal"),
        ],
        ids=["triangle", "reduced"],
    )
    def test_sidecar_names_the_map(self, tmp_path, group, m, flags, expected):
        f = write_csv(tmp_path / "m.csv", m)
        out = tmp_path / "feat.csv"
        assert main(["embed", "--group", group, *flags, "--out", str(out), f]) == 0
        assert json.loads((tmp_path / "feat.csv.json").read_text())["map"] == expected

    @pytest.mark.parametrize(
        "group,n,l,expected",
        [
            ("O", 1, 4, 7),  # n(2l-2n+1)
            ("E", 1, 4, 5),  # n(2l-2n-1)
            ("U", 1, 3, 8),  # 4n(l-n)
            ("F", 1, 4, 8),  # 4n(l-n-1)
        ],
    )
    def test_reduced_dimensions(self, tmp_path, capsys, group, n, l, expected):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((n, l))
        if group in ("U", "F"):
            path = tmp_path / "m.json"
            write_matrix(path, m + 1j * rng.standard_normal((n, l)))
        else:
            path = write_csv(tmp_path / "m.csv", m)
        assert main(["embed", "--group", group, "--reduced", str(path)]) == 0
        row = capsys.readouterr().out.strip().split(",")
        assert len(row) == expected

    @pytest.mark.parametrize("group, l", [("O", 5), ("F", 6)])
    def test_reduced_coordinates_have_the_operator_bits(self, tmp_path, capsys, group, l):
        # the printed coordinates, read back from their 17 digits, have the
        # bits of the sparse operator applied to the float64 view of the
        # Gram root (real and imaginary parts interleaved under F)
        g, rng = GroupAction(group), np.random.default_rng(4)
        x = rng.standard_normal((2, l)) + (1j * rng.standard_normal((2, l)) if g.is_complex else 0)
        path = tmp_path / ("m.json" if g.is_complex else "m.csv")
        write_matrix(path, x)
        assert main(["embed", "--reduced", "--group", group, str(path)]) == 0
        got = np.array([float(v) for v in capsys.readouterr().out.split(",")])
        root = embeddings._block(g, x)[0]
        want = reducer_for(g, 2, l).basis @ root.view(np.float64).ravel()
        assert got.tobytes() == want.tobytes()

    def test_overflowing_feature_single_error_line(self, tmp_path, capsys):
        # edges of 3e308: the triangle coordinates exceed float64
        f = write_csv(tmp_path / "huge.csv", [[-1.5e308, 1.5e308, 0.0], [0.0, 0.0, 1.5e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["embed", "--group", "E", f]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {f} has a feature too large for float64"]

    def test_coincident_extreme_points_embed_to_zero(self, tmp_path, capsys):
        # the centring sum of six points at 1.5e308 would overflow float64;
        # every point coincides, so the feature is zero
        f = write_csv(tmp_path / "same.csv", np.full((2, 6), 1.5e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["embed", "--group", "E", f]) == 0
            assert main(["embed", "--group", "E", "--reduced", f]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [line.split(",") for line in captured.out.split()]
        assert [len(r) for r in rows] == [15, 14]
        assert all(float(v) == 0.0 for r in rows for v in r)

    def test_dimension_hypothesis_exit_4(self, tmp_path, capsys):
        f = write_csv(tmp_path / "m.csv", np.ones((2, 3)))
        assert main(["embed", "--group", "O", "--reduced", f]) == 4
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("group", ["E", "U"])
    def test_dimension_hypothesis_exit_4_at_one_row(self, tmp_path, capsys, group):
        # one row: two points under E leave one centred coordinate, one point
        # under U a block of size 1, and a reducer needs size >= 2n = 2
        f = write_csv(tmp_path / "m.csv", [[1.0, 2.0]] if group == "E" else [[1.0]])
        out = str(tmp_path / "db.jsonl")
        for argv in (["embed", "--group", group, "--reduced", f],
                     ["db-build", "--group", group, "--reduced", "--out", out, f]):
            assert main(argv) == 4
            captured = capsys.readouterr()
            assert captured.out == "" and len(captured.err.splitlines()) == 1


class TestDatabaseCommands:
    def make_inputs(self, tmp_path, count=8):
        rng = np.random.default_rng(17)
        files = []
        for i in range(count):
            files.append(write_csv(tmp_path / f"tri{i:02d}.csv", rng.standard_normal((2, 3))))
        return files

    def test_build_and_query_member(self, tmp_path, capsys):
        files = self.make_inputs(tmp_path)
        db_file = tmp_path / "db.jsonl"
        assert main(["db-build", "--group", "E", "--out", str(db_file)] + files) == 0
        capsys.readouterr()
        assert main(["db-query", str(db_file), files[3], "-k", "1"]) == 0
        rid, gap = capsys.readouterr().out.strip().split(",")
        assert rid == "tri03"
        assert float(gap) == pytest.approx(0.0, abs=1e-12)

    def test_query_verify_sandwich(self, tmp_path, capsys):
        files = self.make_inputs(tmp_path, 12)
        db_file = tmp_path / "db.jsonl"
        main(["db-build", "--group", "E", "--out", str(db_file)] + files)
        query = write_csv(tmp_path / "q.csv", np.random.default_rng(5).standard_normal((2, 3)))
        capsys.readouterr()
        assert main(["db-query", str(db_file), query, "-k", "3", "--verify"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 3
        for _, embedded, exact in rows:
            assert float(exact) <= float(embedded) + 1e-9
            assert float(embedded) <= SQRT2 * float(exact) + 1e-9

    @pytest.mark.parametrize("size", [2, 12])
    def test_verified_columns_have_the_bits_of_orbit_distance(self, tmp_path, capsys, size):
        # every hit verified in one stacked solve: each exact column, read
        # back from its 17 printed digits, is orbit_distance's float
        rng = np.random.default_rng(5)
        files = [write_csv(tmp_path / f"r{i:02d}.csv", rng.standard_normal((2, 6))) for i in range(size)]
        db_file = str(tmp_path / "db.jsonl")
        assert main(["db-build", "--group", "E", "--out", db_file] + files) == 0
        capsys.readouterr()
        query = files[size // 4]
        assert main(["db-query", db_file, query, "-k", str(size), "--verify"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.split()]
        db, q = load_database(db_file), read_matrix(query)
        assert sorted(rid for rid, _, _ in rows) == sorted(db.ids)
        for rid, _, exact in rows:
            assert float(exact) == orbit_distance(GroupAction.EUCLIDEAN, q, db.matrices[db.index_of(rid)])[0]

    def test_screen_near_ties_keep_the_float64_order(self, tmp_path, capsys):
        # 600 records of 2x6, so the screen's first step runs on a strided
        # subsample (every second row): copies of record 0 sit on the
        # subsample and records about 1e-6 from it between them, so the
        # float32 screen meets near ties around the query
        rng = np.random.default_rng(23)
        x = rng.standard_normal((600, 2, 6))
        x[2:42:2] = x[0]
        x[1:41:2] = x[0] + 1e-6 * rng.standard_normal((20, 2, 6))
        db_file = tmp_path / "db.jsonl"
        save_database(db_file, ShapeDatabase(GroupAction.EUCLIDEAN, [(f"s{i:03d}", m) for i, m in enumerate(x)]))
        query = write_csv(tmp_path / "q.csv", x[0] + 1e-5 * rng.standard_normal((2, 6)))
        assert main(["db-query", str(db_file), query, "-k", "5"]) == 0
        got = [(float(d), rid) for rid, d in (line.split(",") for line in capsys.readouterr().out.split())]
        # the first 5 of a float64 (distance, id) sort of every row
        db = load_database(db_file)
        d = db._distances(db.query_feature(read_matrix(query)), np.arange(len(db)))
        assert got == sorted(zip(d.tolist(), db.ids))[:5]

    def test_distance_beyond_float64_reads_inf(self, tmp_path, capsys):
        # two finite O features whose distance from the query's is beyond
        # float64 for one of them: inf, with no warning
        query = write_csv(tmp_path / "query.csv", [[8e307] * 4, [0.0] * 4])
        far = write_csv(tmp_path / "far.csv", [[0.0] * 4, [8e307, -8e307, 8e307, -8e307]])
        near = write_csv(tmp_path / "near.csv", [[4e307] * 4, [0.0] * 4])
        db_file = str(tmp_path / "db.jsonl")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["db-build", "--group", "O", "--out", db_file, far, near]) == 0
            capsys.readouterr()
            assert main(["db-query", db_file, query, "-k", "2"]) == 0
        captured = capsys.readouterr()
        assert "far,inf" in captured.out.splitlines()
        assert captured.err == ""

    def test_k_exceeding_size_returns_all(self, tmp_path, capsys):
        files = self.make_inputs(tmp_path, 4)
        db_file = tmp_path / "db.jsonl"
        main(["db-build", "--group", "E", "--out", str(db_file)] + files)
        query = write_csv(tmp_path / "q.csv", np.random.default_rng(9).standard_normal((2, 3)))
        capsys.readouterr()
        assert main(["db-query", str(db_file), query, "-k", "99"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
    def test_empty_database_file_exit_2(self, tmp_path, capsys, text):
        db_file = tmp_path / "db.jsonl"
        db_file.write_text(text)
        query = write_csv(tmp_path / "q.csv", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert main(["db-query", str(db_file), query, "-k", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {db_file}: empty database file"]

    def test_unknown_feature_map_exit_2(self, tmp_path, capsys):
        files = self.make_inputs(tmp_path, 4)
        db_file = tmp_path / "db.jsonl"
        assert main(["db-build", "--group", "E", "--out", str(db_file)] + files) == 0
        header, *records = db_file.read_text().splitlines()
        header = json.dumps(dict(json.loads(header), feature_map="bogus"))
        db_file.write_text("\n".join([header, *records]) + "\n")
        capsys.readouterr()
        assert main(["db-query", str(db_file), files[0], "-k", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {db_file}: header has unknown feature_map 'bogus'"
        ]

    @pytest.mark.parametrize("feature_map", ["full", "reduced"])
    def test_header_shape_checked_before_any_feature(self, tmp_path, capsys, monkeypatch, feature_map):
        # the reduced map would refuse l = 3 at n = 2 without naming the file
        built = []
        kernel = search._feature_stack

        def spy(*args):
            built.append(args)
            return kernel(*args)

        monkeypatch.setattr(search, "_feature_stack", spy)
        header = {"group": "E", "n": 2, "l": 4, "feature_map": feature_map}
        records = [json.dumps({"id": str(k), "matrix": [[1, 2, k], [4, 5, 6]]}) for k in (3, 7)]
        db_file = tmp_path / "db.jsonl"
        db_file.write_text("\n".join([json.dumps(header), *records]) + "\n")
        query = write_csv(tmp_path / "q.csv", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert main(["db-query", str(db_file), query, "-k", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {db_file}: header shape (2, 4) does not match records"
        ]
        assert built == []

    def test_outputs_get_the_umask_mode(self, tmp_path, capsys):
        old = os.umask(0o022)
        try:
            files = self.make_inputs(tmp_path, 2)
            assert main(["db-build", "--group", "E", "--out", str(tmp_path / "db.jsonl")] + files) == 0
            assert main(["embed", "--group", "E", "--out", str(tmp_path / "f.csv"), files[0]]) == 0
        finally:
            os.umask(old)
        for name in ("db.jsonl", "f.csv", "f.csv.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o644

    def test_empty_build_exit_5(self, tmp_path, capsys):
        assert main(["db-build", "--group", "E", "--out", str(tmp_path / "db.jsonl")]) == 5
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case,code",
        [
            ("shared-stem", 1),
            ("k-zero", 1),
            ("nan-query", 1),
            ("unknown-group", 2),
            ("non-object-record", 2),
            ("non-integer-header", 2),
            ("fractional-header", 2),
            ("string-header", 2),
            ("bool-header", 2),
        ],
    )
    def test_malformed_input_single_error_line(self, tmp_path, capsys, case, code):
        header = {"group": "E", "n": 2, "l": 3, "feature_map": "full"}
        lines = [json.dumps({"id": "a", "matrix": [[1, 2, 3], [4, 5, 6]]})]
        if case == "unknown-group":
            header["group"] = "Z"
        if case == "non-object-record":
            lines = ["5"]
        if case == "non-integer-header":
            header["n"] = "x"
        # int() would read these as 2 and answer the query
        if case == "fractional-header":
            header["n"] = 2.7
        if case == "string-header":
            header["n"] = "2"
        if case == "bool-header":
            header["l"] = True
        db_file = tmp_path / "db.jsonl"
        db_file.write_text("\n".join([json.dumps(header)] + lines) + "\n")
        query = write_csv(tmp_path / "q.csv", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        if case == "nan-query":
            # parses, then fails the finiteness check
            query = write_csv(tmp_path / "q.csv", [[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]])
        if case == "shared-stem":
            (tmp_path / "x").mkdir()
            same_stem = write_csv(tmp_path / "x" / "q.csv", [[1.0, 2.0, 3.0], [0.0, 0.0, 1.0]])
            out = str(tmp_path / "out.jsonl")
            argv = ["db-build", "--group", "E", "--out", out, query, same_stem]
        else:
            argv = ["db-query", str(db_file), query, "-k", "0" if case == "k-zero" else "1"]
        assert main(argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "Traceback" not in err[0]


class TestExperimentCommand:
    # sha256 of report.json at the CLI defaults, fixed by the sampling
    # contract (see orbitdist.experiments); other bits on another platform
    # are a finding about that contract, not noise
    DIGESTS = {
        ("distortion", 0): "36d575a07d2801537096254946dfafbad301a0fb30f6abd616de650640ab01b8",
        ("distortion", 1): "3bec3ec28da582d36577e2f1f66b40a7903f5a0c6d357a2ff932ef1aa7f8f530",
        ("distortion", 2): "a5efacac615e1bdd7857f9e99d46b6bcb6861be9287698adc0c4d5f95f00083d",
        ("classify", 0): "0e69f0e6282ecd3a4098ce71c801a24a05ed39402567b10ebab20ae06da84df2",
        ("classify", 1): "3a90b62481dd04c62b9187de014055e8c33799d39cd1bf98a7328826964af2ed",
        ("classify", 2): "f95e7a9d162083b225d8b24a1840f1aa8bc387a7039630e28744952b846ac010",
        ("lower-constant", 0): "2bc132a8cca0967891e620f1b41053eac29de098597fd553773691cb0ca76d84",
        ("lower-constant", 1): "acfc201dab4719aa7d8c3bd9fa5fb78bcbe70cc11883f512548522c7973dbd78",
        ("lower-constant", 2): "6b0a8006f35f25dc1c54088a1a65963491280111b21d46a06aea3087b08e212c",
    }

    # sha256 of <report.kind>.csv and of stdout, from the same runs
    OUTPUT_DIGESTS = {
        ("distortion", 0): (
            "05b39a3a72ddaf764468c51f7a1691d398b5c2cd4a9a0561bd2c36c892c7159b",
            "99cb0e4de0c88e4c9497474d3ef19ab6bada68d79aca0e96cc176d5d8d4df7e9",
        ),
        ("distortion", 1): (
            "3d220e31f53d724a80d3c215ba800edca80bb25acaa39174ca3918c53f1215e3",
            "6931fb6913d31ed03a22ed55c4165eb22d55fde21e5a922cc3942bdfa0c686a2",
        ),
        ("distortion", 2): (
            "8c7856c6d1fc97bf4695497d338bab87035d5b02c3b440637e320adaae7c402c",
            "12f7e42108d61e016a78601c832c9e5366fabbd838c666f29dd170d47decf2b2",
        ),
        ("classify", 0): (
            "807c744840f6e042d6a2eb07b5c0c4aa53252b2f9bab8a07b4f3ad3fd16b4833",
            "0bd5c95fc353fc65746285d6eb998845facaaf32eb061fdc1bcedc5ed249359c",
        ),
        ("classify", 1): (
            "79f2c888d40ea9436567a397624ebb37296537f40613d81ece013dfabb8e961e",
            "c3f1393975cc352e12b2b35ba774180ca048211267693582b7e6a329b7e72b8c",
        ),
        ("classify", 2): (
            "69c729ff24f806c58041d66fa32fee452badb17a0c376c57624d6578630eea07",
            "c6cdd8d24467dd33bf8828aaeca3226dac685227f8d76495a583e056961982f9",
        ),
        ("lower-constant", 0): (
            "a41664ef37a36fe7abbe861bba44adb2293dcc90cc5006f106a53a523090f7d5",
            "779a7f5097e15314b0cb8107b2f8794efca32c2a54085b7b39eb192786533e15",
        ),
        ("lower-constant", 1): (
            "772e9240eec3375105d7756af1e364369edbc1415997310ccb503db0a4151859",
            "cd97753e97b0127d5da1f7d85522b647161da765d633b39471b508c1d133b02e",
        ),
        ("lower-constant", 2): (
            "db6f7b376b415446668d1248ff16a9907d2692684b9558c9b0e0cd263e0b9831",
            "eca7f0a152791c603cd4428b6774ced89352b0125574ae16309a83be05f614be",
        ),
    }

    @pytest.mark.parametrize("kind, seed", list(DIGESTS))
    def test_report_digest_at_cli_defaults(self, tmp_path, capsys, kind, seed):
        assert main(["experiment", kind, "--seed", str(seed), "--out", str(tmp_path)]) == 0
        report = (tmp_path / "report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == self.DIGESTS[kind, seed]
        csv = tmp_path / f"{json.loads(report)['kind']}.csv"
        outputs = (csv.read_bytes(), capsys.readouterr().out.encode())
        assert tuple(hashlib.sha256(b).hexdigest() for b in outputs) == self.OUTPUT_DIGESTS[kind, seed]

    # sha256 of report.json of classify with HIGH_NOISE: most queries at
    # these levels have records other than their own within their radius,
    # and many are ranked against every record
    HIGH_NOISE = {"db_size": 200, "n_draws": 5, "noise_grid": [0.1, 0.5, 2.0]}
    HIGH_NOISE_DIGESTS = {
        0: "69a3ac65dcc0af2199451b886a3d3ae5da43cfa72b9bc290e8ace191ed675bff",
        1: "4cc96026dfd8b59acd38e345be4baab40b014f4f66b3f5f958ff6877c96d30f2",
    }

    @pytest.mark.parametrize("seed", list(HIGH_NOISE_DIGESTS))
    def test_classify_digest_at_high_noise(self, tmp_path, capsys, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.HIGH_NOISE))
        out = tmp_path / "run"
        argv = ["experiment", "classify", "--seed", str(seed), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        assert digest == self.HIGH_NOISE_DIGESTS[seed]

    def test_classify_zero_noise_rates(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"db_size": 20, "n_draws": 2, "noise_grid": [0.0]}))
        out = tmp_path / "run"
        assert (
            main(
                ["experiment", "classify", "--seed", "4", "--config", str(cfg), "--out", str(out)]
            )
            == 0
        )
        report = json.loads((out / "report.json").read_text())
        for rates in report["rates"]["misclassification"].values():
            assert rates == [0.0]
        csv_lines = (out / "classification.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "map,epsilon,rate"
        assert len(csv_lines) == 4  # header + three maps at one epsilon

    def test_distortion_report_and_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_pairs": 400}))
        out = tmp_path / "run"
        assert (
            main(
                [
                    "experiment",
                    "distortion",
                    "--seed",
                    "8",
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["n_pairs"] == 400
        assert (out / "distortion.csv").read_text().startswith("map,bin_left,bin_right,count")

    @pytest.mark.parametrize(
        "kind, config",
        [
            ("distortion", {"n_pairs": 300}),
            # the E features at l = 1024 read the centred configuration in
            # closed-form Helmert coordinates; the n = 1 U ones are
            # self-correlations by FFT
            ("lower-constant", {"group": "E", "n": 1, "l": 1024, "n_pairs": 4}),
            ("lower-constant", {"group": "U", "n": 1, "l": 1024, "n_pairs": 16}),
        ],
        ids=["distortion", "lower-constant-E-1024", "lower-constant-U-1024"],
    )
    def test_same_seed_byte_identical_reports(self, tmp_path, capsys, kind, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["experiment", kind, "--seed", "77", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_lower_constant_kind(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_pairs": 200, "group": "O", "n": 1, "l": 4}))
        assert (
            main(
                [
                    "experiment",
                    "lower-constant",
                    "--seed",
                    "3",
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        report = json.loads((out / "report.json").read_text())
        assert report["ratio_stats"]["reduced"]["min"] > 0.0

    def test_invalid_config_exit_6(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_pairs": 0}))
        assert main(["experiment", "distortion", "--config", str(cfg)]) == 6
        assert "error" in capsys.readouterr().err

    # a JSON syntax error, a file that is not UTF-8, and an integer longer
    # than Python converts (json raises a plain ValueError for the last two)
    @pytest.mark.parametrize(
        "text",
        [b"{broken", b"\xff\xfe{}", b'{"n_pairs": 1' + b"0" * 5000 + b"}"],
        ids=["syntax", "not-utf-8", "int-of-5001-digits"],
    )
    def test_malformed_config_exit_6(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        assert main(["experiment", "distortion", "--config", str(cfg)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read config {cfg}")

    def test_config_that_is_not_an_object_exit_6(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["experiment", "distortion", "--config", str(cfg)]) == 6
        assert capsys.readouterr().err.splitlines() == ["error: config file must hold a JSON object"]

    @pytest.mark.parametrize(
        "kind, seed, config",
        [
            ("distortion", "-1", {"n_pairs": 10}),
            ("distortion", str(2**64), {"n_pairs": 10}),
            ("classify", "-1", {"db_size": 5, "noise_grid": [0.0]}),
            ("lower-constant", str(2**64), {"n_pairs": 10}),
            ("lower-constant", "0", {"n_pairs": None}),
            ("classify", "0", {"db_size": 10**15, "noise_grid": [0.0]}),
            ("classify", "0", {"db_size": 5, "n_draws": 10**12, "noise_grid": [0.0]}),
            ("distortion", "0", {"n_pairs": 10**15}),
            ("lower-constant", "0", {"n_pairs": 10**15}),
            ("lower-constant", "0", {"n": 0}),
            ("lower-constant", "0", {"n": 1.5}),
            ("lower-constant", "0", {"l": 3.7}),
            ("lower-constant", "0", {"l": MAX_L + 1}),
            ("lower-constant", "0", {"n_pairs": 10.5}),
            ("classify", "0", {"db_size": 5, "n_draws": "many", "noise_grid": [0.0]}),
            # keys the study does not read: another study's, a typo, the seed
            ("distortion", "0", {"n_pairs": 100, "group": "O", "n": 3, "l": 9}),
            ("distortion", "0", {"n_pair": 100}),
            ("classify", "0", {"db_size": 5, "n_pairs": 10}),
            ("lower-constant", "0", {"n_pairs": 10, "seed": 3}),
        ],
        ids=["seed-negative", "seed-2**64", "classify-seed-negative", "lower-constant-seed-2**64",
             "lower-constant-n_pairs-null", "classify-db_size-10**15", "classify-n_draws-10**12",
             "distortion-n_pairs-10**15", "lower-constant-n_pairs-10**15", "lower-constant-n-0",
             "lower-constant-n-1.5", "lower-constant-l-3.7", "lower-constant-l-MAX_L+1",
             "lower-constant-n_pairs-10.5", "classify-n_draws-string", "distortion-other-study",
             "distortion-typo", "classify-n_pairs", "lower-constant-seed-key"],
    )
    def test_out_of_range_config_single_error_line(self, tmp_path, capsys, kind, seed, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["experiment", kind, "--seed", seed, "--config", str(cfg), "--out", str(tmp_path)]
        assert main(argv) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "kind, config",
        [
            ("classify", '{"noise_grid": [0.0, 1e160]}'),
            ("classify", '{"noise_grid": [0.0, 1e308]}'),
            ("classify", '{"noise_grid": [0.0, Infinity]}'),
            ("classify", '{"noise_grid": [0.0, NaN]}'),
            ("classify", '{"maps": [["exact"]]}'),
            ("classify", '{"maps": ["exact", "exact"]}'),
            ("classify", '{"maps": []}'),
            ("distortion", '{"n_pairs": 10, "maps": [["side_lengths"]]}'),
            ("distortion", '{"n_pairs": 10, "maps": ["side_lengths", "side_lengths"]}'),
            # not a list: a string would be read one character per entry,
            # so "0" would run the grid [0.0]
            ("classify", '{"maps": "exact"}'),
            ("classify", '{"noise_grid": "0"}'),
            ("distortion", '{"n_pairs": 10, "maps": "side_lengths"}'),
            # an integer beyond float64, and levels that are not numbers
            pytest.param("classify", '{"noise_grid": [1' + "0" * 400 + "]}", id="noise-int-beyond-float64"),
            ("classify", '{"noise_grid": [0.0, "a"]}'),
            ("classify", '{"noise_grid": [null]}'),
            ("lower-constant", '{"group": "Z"}'),
        ],
    )
    def test_bad_noise_or_maps_single_error_line(self, tmp_path, capsys, kind, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        argv = ["experiment", kind, "--config", str(cfg), "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "report.json").exists()

    def test_oversized_reducer_exits_6_without_allocating(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 32, "l": 1024}))
        argv = ["experiment", "lower-constant", "--config", str(cfg), "--out", str(tmp_path)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 6
        # the reducer would hold about 2**25 non-zeros, 0.5 GB
        assert peak < 1 << 20
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "non-zeros" in err[0]
        assert not (tmp_path / "report.json").exists()


class FakeMallopt:
    """Stands in for glibc's ``mallopt`` and records each call in ``events``."""

    argtypes = restype = None

    def __init__(self, events):
        self.events = events

    def __call__(self, param, value):
        assert self.argtypes == (ctypes.c_int, ctypes.c_int) and self.restype is ctypes.c_int
        self.events.append(("mallopt", param, value))
        return 1


def fake_libc(events, has_mallopt=True):
    """Stands in for ``ctypes.CDLL(None)``, with or without ``mallopt``."""
    return SimpleNamespace(mallopt=FakeMallopt(events)) if has_mallopt else SimpleNamespace()


def run_every_command(workdir: Path, capsys, monkeypatch):
    """Exit code, output and written files of each subcommand, on small
    inputs, run in ``workdir`` with relative paths."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    write_csv("a.csv", [[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    write_csv("b.csv", [[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]])
    configs = {
        "distortion": {"n_pairs": 50},
        "classify": {"db_size": 20, "n_draws": 2},
        "lower-constant": {"group": "U", "n": 2, "l": 5, "n_pairs": 20},
    }
    argvs = [
        ["dist", "--group", "E", "a.csv", "b.csv"],
        ["dist", "--group", "E", "a.csv", "missing.csv"],
        ["embed", "--group", "O", "--reduced", "--out", "e.csv", "a.csv"],
        ["db-build", "--group", "E", "--out", "db.jsonl", "a.csv", "b.csv"],
        ["db-query", "db.jsonl", "a.csv", "-k", "2", "--verify"],
    ]
    for kind, config in configs.items():
        Path(f"{kind}.json").write_text(json.dumps(config))
        argvs.append(["experiment", kind, "--config", f"{kind}.json", "--out", kind])
    runs = []
    for argv in argvs:
        code = main(argv)
        runs.append((code, capsys.readouterr()))
    written = sorted((str(f), f.read_bytes()) for f in Path().rglob("*") if f.is_file())
    return runs, written


class TestMemoryPolicy:
    """``main`` sets glibc's allocator policy once per call, before it
    parses or runs a command, and where there is no glibc or no ``mallopt``
    every command runs as it does with it."""

    def test_both_parameters_once_per_call_before_dispatch(self, tmp_path, capsys, monkeypatch):
        events = []
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: fake_libc(events))
        dist = cli._cmd_dist
        monkeypatch.setattr(cli, "_cmd_dist", lambda args: events.append("dispatch") or dist(args))
        a = write_csv(tmp_path / "a.csv", [[1.0, 2.0]])
        policy = [("mallopt", -1, 1 << 28), ("mallopt", -3, 1 << 25)]
        for calls in (1, 2):
            assert main(["dist", "--group", "O", a, a]) == 0
            assert events == (policy + ["dispatch"]) * calls
        # a command line that does not parse still runs after the policy
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        assert events[-2:] == policy

    @pytest.mark.parametrize("version", ["", None])
    def test_no_libc_version_loads_no_library(self, monkeypatch, version):
        monkeypatch.setattr(os, "confstr", lambda name: version, raising=False)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: pytest.fail("ctypes.CDLL was called"))
        cli._keep_heap()

    @pytest.mark.parametrize("platform", ["no confstr", "unknown name", "not glibc", "no mallopt"])
    def test_every_command_runs_unchanged_without_glibc(self, tmp_path, capsys, monkeypatch, platform):
        expected = run_every_command(tmp_path / "glibc", capsys, monkeypatch)
        events = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: fake_libc(events, platform != "no mallopt"))

        def confstr(name):
            assert name == "CS_GNU_LIBC_VERSION"
            if platform == "unknown name":
                raise ValueError("unrecognized configuration name")
            if platform == "not glibc":
                raise OSError(22, "Invalid argument")
            return "glibc 2.36"

        if platform == "no confstr":
            monkeypatch.delattr(os, "confstr", raising=False)
        else:
            monkeypatch.setattr(os, "confstr", confstr, raising=False)
        got = run_every_command(tmp_path / "other", capsys, monkeypatch)
        assert events == []
        assert got == expected

    def test_no_warning_in_a_dev_mode_process(self, tmp_path):
        # the real policy where there is glibc, as every other process runs it
        a = write_csv(tmp_path / "a.csv", [[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        b = write_csv(tmp_path / "b.csv", [[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]])
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "orbitdist.cli", "dist", "--group", "E", a, b],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.startswith("distance ")


# Runs in a fresh interpreter where a text file opened without an encoding
# raises EncodingWarning; the commands that read a config or write a file
# name their encoding, UTF-8, and run without it.
UTF8_COMMANDS = """
import sys
from orbitdist.cli import main
for argv in (
    ["experiment", "distortion", "--config", "d.json", "--out", "d"],
    ["embed", "--group", "E", "--out", "e.csv", "a.csv"],
    ["db-build", "--group", "E", "--out", "db.jsonl", "a.csv", "b.csv"],
):
    assert main(argv) == 0, argv
"""


def test_files_are_read_and_written_as_utf8(tmp_path):
    write_csv(tmp_path / "a.csv", [[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    write_csv(tmp_path / "b.csv", [[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]])
    (tmp_path / "d.json").write_text('{"n_pairs": 50}\n', encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", UTF8_COMMANDS],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("d/report.json", "d/distortion.csv", "e.csv", "db.jsonl"):
        assert (tmp_path / name).stat().st_size > 0
