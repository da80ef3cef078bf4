"""Command-line surface: schemas, round trips, exit codes, determinism."""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import hwcover
from hwcover import catalog
from hwcover.cli import (_CSV_FIELDS, _csv, _descriptor_csv_row, _emit, _text, build_parser,
                         descriptor_from_csv_row, main)
from witnesses import (csv_text, descriptor_csv, json_classes, json_count, json_descriptor_text,
                       json_enumerate, json_normal, json_verify)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_table(capsys):
    code, out, _ = run_cli(capsys, "count", "--max", "4")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "n,s_g1,s_g2,s_g6,s_total,c_g1,c_g2,c_g6,c_total"
    assert rows[1] == "1,0,0,1,1,0,0,1,1"
    assert rows[2] == "2,0,3,0,3,0,3,0,3"
    assert rows[4] == "4,1,18,0,19,1,12,0,13"


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "--max", "2", "--format", "json")
    data = json.loads(out)
    assert data[1] == {"n": 2, "s_g1": 0, "s_g2": 3, "s_g6": 0, "s_total": 3,
                       "c_g1": 0, "c_g2": 3, "c_g6": 0, "c_total": 3}


def test_enumerate_json_round_trip(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--index", "3", "--type", "g6",
                             "--format", "json")
    assert code == 0
    assert "count=9" in err
    data = json.loads(out)
    assert len(data) == 9
    parsed = [catalog.from_json_dict(obj) for obj in data]
    assert parsed == catalog.enumerate_g6(3)
    assert [catalog.to_json_dict(d) for d in parsed] == data


def test_enumerate_csv_round_trip(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--index", "8", "--format", "csv")
    assert code == 0
    assert "count=91" in err
    rows = list(csv.DictReader(io.StringIO(out)))
    parsed = [descriptor_from_csv_row(row) for row in rows]
    assert parsed == catalog.enumerate_index(8)


@pytest.mark.parametrize("line, message", [
    ("z3,,,,,,,,1,0,1", "no cell for column 'e'"),
    ("z3,,,,,,,,1,0,1,0,0,0,,,7,8", "2 cells more than the header"),
    # one more header column of 5,000 characters, then a row without its cell:
    # the name is shown through the same 60-character cap as a descriptor field
    pytest.param("," + "c" * 5000 + "\nz3,,,,,,,,1,0,1,0,0,0,,",
                 "no cell for column 'c{27}[.]{3}c{28}'$", id="5000-character column"),
])
def test_csv_row_of_the_wrong_length_rejected(line, message):
    columns, _, line = line.rpartition("\n")  # what comes before a newline extends the header
    row, = csv.DictReader(io.StringIO(",".join(_CSV_FIELDS) + columns + "\n" + line + "\n"))
    with pytest.raises(ValueError, match=message):
        descriptor_from_csv_row(row)


def test_enumerate_csv_matches_the_descriptor_route(capsys):
    # The command formats its lines from the parameter blocks; the witness
    # writes the cells of each descriptor through csv.writer.
    for n in range(1, 49):
        for iso in (None, *catalog.ISO_TYPES):
            ds = catalog.enumerate_index(n) if iso is None else catalog.enumerate_iso(iso, n)
            type_args = () if iso is None else ("--type", iso)
            code, out, err = run_cli(capsys, "enumerate", "--index", str(n), *type_args)
            assert code == 0
            assert out == descriptor_csv(ds), (n, iso)
            assert err == f"enumerate: index={n} type={iso or 'all'} count={len(ds)}\n"
            for d in ds:
                assert descriptor_from_csv_row(_descriptor_csv_row(d)) == d


@pytest.mark.parametrize("n, iso", [(96, None), (135, None), (160, None), (288, "g1")],
                         ids=["96", "135", "160", "288-g1"])
def test_enumerate_csv_matches_the_descriptor_route_beyond_48(n, iso, capsys):
    # G2 planes whose H has a >= 2 and b >= 10 (n = 96, 160), G6 boxes with k >= 3 (n = 135),
    # Z3 blocks (c, e, f) with c up to 72 over short lists of cells (b, d, a) (n = 288)
    ds = catalog.enumerate_index(n) if iso is None else catalog.enumerate_iso(iso, n)
    type_args = () if iso is None else ("--type", iso)
    code, out, err = run_cli(capsys, "enumerate", "--index", str(n), *type_args)
    assert code == 0
    assert out == descriptor_csv(ds)
    assert err == f"enumerate: index={n} type={iso or 'all'} count={len(ds)}\n"


@pytest.mark.parametrize("argv", [
    ("count", "--max", "1"), ("count", "--max", "300"), ("count", "--max", "1000"),
    ("normal", "--max", "1"), ("normal", "--max", "257"),
    ("series", "--max", "1"), ("series", "--max", "64"),
    ("series", "--max", "8", "--out", "PATH"), ("series", "--max", "300", "--out", "PATH"),
    ("classes", "--index", "1"), ("classes", "--index", "48"), ("classes", "--index", "105"),
    ("classes", "--index", "96", "--type", "g2"), ("classes", "--index", "5", "--type", "g1"),
    ("verify", "--max", "6", "--oracle-limit", "0"), ("verify", "--max", "10", "--oracle-limit", "6"),
    ("verify", "--max", "8", "--oracle-limit", "8"),
    ("enumerate", "--index", "1"), ("enumerate", "--index", "48"),
    ("enumerate", "--index", "96", "--type", "g2"), ("enumerate", "--index", "45", "--type", "g6"),
], ids=" ".join)
def test_csv_is_what_csv_writer_writes(argv, tmp_path, capsys):
    # Every CSV the CLI writes parses into rows of the header's length, and
    # csv.writer, with its minimal quoting, writes the same rows back byte for byte.
    path = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, *(str(path) if arg == "PATH" else arg for arg in argv))
    assert code == 0
    if argv[0] == "series":
        # the audit line after the table is a comment, not a row
        out, comment = out[:out.index("#")], out[out.index("#"):]
        assert comment.startswith("# row 3 label audit: ") and comment.count("\n") == 1
    for text in (out, path.read_text(encoding="utf-8")) if path.exists() else (out,):
        header, *rows = csv.reader(io.StringIO(text))
        assert all(len(row) == len(header) for row in rows)
        assert csv_text(header, rows) == text


@pytest.mark.parametrize("row", [(1, 2), (1, 2, 3, 4)], ids=["short", "long"])
def test_emit_rejects_a_row_of_another_length(row, capsys):
    with pytest.raises(TypeError):
        _emit(None, _csv(["a", "b", "c"], [(1, 2, 3), row]))


def test_enumerate_empty(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--index", "5", "--type", "g1",
                             "--format", "json")
    assert code == 0
    assert json.loads(out) == []
    assert "count=0" in err
    code, out, err = run_cli(capsys, "enumerate", "--index", "5", "--type", "g1")
    assert code == 0
    assert out == "type,axis,k,l,m,u,v,w,b,c,a,e,f,d,s,t\n"
    assert err == "enumerate: index=5 type=g1 count=0\n"


def test_classes_csv(capsys):
    code, out, _ = run_cli(capsys, "classes", "--index", "3")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert all(row["type"] == "g6" and row["size"] == "3" for row in rows)
    rep = json.loads(rows[0]["representative"])
    assert rep["type"] == "g6"


@pytest.mark.parametrize("iso", catalog.ISO_TYPES)
def test_representative_cells_match_the_json_route(iso):
    # every descriptor of the type at n <= 48 at each nesting the CLI prints: the
    # classes CSV cell (None), an enumerate item (2), a classes representative (6)
    # and member (8); and the cell of every class at the benchmark's indices and 256
    for n in range(1, 49):
        for d in catalog.enumerate_iso(iso, n):
            for indent in (None, 2, 6, 8):
                assert _text(d, indent) == json_descriptor_text(d, indent), (d, indent)
    for n in (100, 104, 116, 243, 256):
        for rep, _ in catalog.iter_classes(n, iso):
            assert _text(rep) == json_descriptor_text(rep), rep


@pytest.mark.parametrize("n", [1, 3, 8, 48, 243])
@pytest.mark.parametrize("iso", [None, *catalog.ISO_TYPES])
def test_descriptor_json_is_what_json_dumps_writes(n, iso, capsys):
    # the whole documents, empty lists too (no g1 subgroup has index 3)
    type_args = () if iso is None else ("--type", iso)
    _, out, _ = run_cli(capsys, "enumerate", "--index", str(n), *type_args, "--format", "json")
    assert out == json_enumerate(n, iso)
    _, out, _ = run_cli(capsys, "classes", "--index", str(n), *type_args, "--format", "json")
    assert out == json_classes(n, iso)


@pytest.mark.parametrize("argv", [
    ("count", "--max", "1"), ("count", "--max", "50"), ("normal", "--max", "1"), ("normal", "--max", "64"),
    # oracle limit 0 leaves every oracle cell and tables_bijective null
    ("verify", "--max", "1", "--oracle-limit", "0"), ("verify", "--max", "12", "--oracle-limit", "0"),
    ("verify", "--max", "12", "--oracle-limit", "12"),
], ids=" ".join)
def test_row_json_is_what_json_dumps_writes(argv, capsys):
    # the witness takes the values of the options in order
    witness = {"count": json_count, "normal": json_normal, "verify": json_verify}[argv[0]]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == witness(*map(int, argv[2::2]))


def test_verify_json_of_a_mismatch_is_what_json_dumps_writes(capsys, monkeypatch):
    # a wrong letter-product cell makes the table bijections false, and class
    # counts that raise at n = 2 leave catalog cells null and their rows false
    from hwcover import group
    broken = dict(group.LETTER_PRODUCT)
    broken["x", "y"] = ("z", 0, 0, 1)
    monkeypatch.setattr(group, "LETTER_PRODUCT", broken)

    def class_count(iso, n, real=catalog.class_count):
        if n == 2:
            raise RuntimeError("boom")
        return real(iso, n)
    monkeypatch.setattr(catalog, "class_count", class_count)
    code, out, _ = run_cli(capsys, "verify", "--max", "6", "--oracle-limit", "6", "--format", "json")
    assert code == 1
    assert '"match": false' in out and '"tables_bijective": false' in out
    assert '"c_catalog": null' in out
    assert out == json_verify(6, 6)


# SHA-256 of stdout per command line; --out must write the same bytes.
_PINNED = {
    ("classes", "--index", "104"):
        "11b4f67e2151e9e27540ab7d108e8136728358c6f0fbc86a2581bb39fbf49100",
    ("classes", "--index", "275"):
        "cd3ae8fbf07071f9c3a8bd72b8a28fbf3de0284f02c13931cb1eedb8a4f43119",
    ("classes", "--index", "105"):
        "ad898207af0ea49701151a79ea18d8ba75dc57d902c578fc804f4ab4b2b02fb0",
    ("classes", "--index", "96", "--type", "g2"):
        "23d09d4e5250cc71ba9cbaa3baf844853041b0970e49dca834630fa20e3c3a48",
    ("classes", "--index", "96", "--type", "g1"):
        "e433c5b26cbd75ba372422df0072ff71675d1801e1dbf84044d7cb94a8e370b6",
    ("classes", "--index", "48", "--format", "json"):
        "5f3d25309136b727df58603be63fa8a87270593d6df0a355e249aa8f31d40d9e",
    ("classes", "--index", "45", "--format", "json"):
        "fa00849a5f4a5e946ae4e3a57d741f223a4d1ecbfa2db742b4ce54d2a7d49f79",
    ("classes", "--index", "64", "--type", "g2", "--format", "json"):
        "0e4d1ac16140dddda8511dcb4776385b64b4da3fbad21caba550ca1406450b2a",
    ("classes", "--index", "200", "--type", "g2"):
        "432548f57c13ac05a94d43ee8e05f328186a63417c43c29037c44954b3b13148",
    ("enumerate", "--index", "96"):
        "91548c4a1694f90789fe19723c94cd8357edf05fc7f2358b576a0a0d524aa9c4",
    ("enumerate", "--index", "96", "--type", "g1"):
        "c6b934452dd380f4d74514907757230021533a97ee6010f01cf0f5167813b1c1",
    ("enumerate", "--index", "96", "--type", "g2"):
        "d59b25244cba3217201a90c8ef8c310dfb3cf7120cce826523ee7375e4263a15",
    ("enumerate", "--index", "45", "--type", "g6"):
        "7b53671cb233a86846365767abb6545f97d8ccfe90b8cda5a299e54e5094375b",
    ("enumerate", "--index", "48", "--format", "json"):
        "b355a3965fc185ce7c70c9b7d1180cf5b45532c6bf9f15f91ab28797c10a41e4",
    ("enumerate", "--index", "27", "--format", "json"):
        "04576e06813b7052e92e37cc0dffa82850d84a73e1564283d0eea58c57204be4",
    ("count", "--max", "1000"):
        "bd99f6dc1d3c79d9ac1f7ade2c70d703662a6721f8fe2812604515f9c0cc8974",
    # 1000 objects: four JSON chunks
    ("count", "--max", "1000", "--format", "json"):
        "be552db7f7ac2f8e20b46e5e17c3a3dc1979b473647a747e9e040e1aa756373b",
    ("verify", "--max", "12", "--oracle-limit", "12"):
        "3b496511dde41cc2a59af73a4734ec3bd60b170f754ff10a383bc0e0815cc0fd",
    ("verify", "--max", "12", "--oracle-limit", "12", "--format", "json"):
        "38d78bcd9ac360b59b8f376e9a996003a95256f960b0da75e95789befa21fa5c",
    ("normal", "--max", "256"):
        "db0051bfd5b2647a5b6b4372ed3cabfaf9e710fe7b8b5f91d04bcd4a57a57784",
    ("normal", "--max", "64", "--format", "json"):
        "15d178f134fcfa26cf4fee5abe732dba4a4fae8a1d94a782bd25940a889bb25d",
}


@pytest.mark.parametrize("argv, expected", _PINNED.items(), ids=[" ".join(argv) for argv in _PINNED])
def test_output_bytes_pinned(argv, expected, tmp_path, capsys):
    _, out, _ = run_cli(capsys, *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == expected
    path = tmp_path / "out.txt"
    code, to_file, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and to_file == ""
    assert path.read_text(encoding="utf-8") == out


def test_normal_summary(capsys):
    code, out, _ = run_cli(capsys, "normal", "--max", "12")
    rows = {(int(r["n"]), r["type"]): r for r in csv.DictReader(io.StringIO(out))}
    assert rows[6, "g2"]["normal"] == "3"
    assert rows[12, "g2"]["normal"] == "6"
    assert rows[8, "g1"]["normal"] == "7"
    assert rows[8, "g1"]["s"] == "7" and rows[8, "g1"]["c"] == "7"


def test_series_report(capsys):
    code, out, _ = run_cli(capsys, "series", "--max", "64")
    assert code == 0
    lines = out.splitlines()
    data_rows = [line for line in lines if not line.startswith("#")]
    rows = {(r["type"], r["kind"]): r for r in csv.DictReader(io.StringIO("\n".join(data_rows)))}
    assert rows["g1", "s"]["verdict"] == "match"
    assert rows["g2", "s"]["verdict"] == "mismatch"
    assert rows["g2", "s"]["first_divergent_n"] == "2"
    assert any("row 3 label audit" in line for line in lines)


def test_series_out_file(tmp_path, capsys):
    path = tmp_path / "coeffs.csv"
    code, _, _ = run_cli(capsys, "series", "--max", "8", "--out", str(path))
    assert code == 0
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 6 * 8
    lookup = {(r["type"], r["kind"], r["n"]): r for r in rows}
    assert lookup["g1", "s", "4"]["table_value"] == "1"
    assert lookup["g2", "s", "2"] == {"type": "g2", "kind": "s", "n": "2",
                                      "table_value": "1", "formula_value": "3"}


def test_series_bytes_pinned_at_4096(tmp_path, capsys):
    def digest(data):
        return hashlib.sha256(data).hexdigest()

    path = tmp_path / "coeffs.csv"
    _, csv_out, _ = run_cli(capsys, "series", "--max", "4096", "--out", str(path))
    _, json_out, _ = run_cli(capsys, "series", "--max", "4096", "--format", "json")
    assert digest(csv_out.encode()) == "60e03c412d6c385ba6450a9f523d459f9cf4e6ca77404a3aae4e1143653ac33c"
    assert digest(json_out.encode()) == "67ddbdadef1a1f3597fd590963c8a930129ea563affe6ed3dac09f1fd6814d62"
    assert digest(path.read_bytes()) == "d2f2deb70c0eda7e92a25317d1a74cecb4a27e87bea0f052ebe667d9c00a1380"


class _HashSink:
    """Text stream that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv, bound_mb", [
    # 21,359 rows: 0.57 MB of CSV and 2.5 MB of JSON text.  Building the whole
    # output before writing it peaks at 4.5 MB (CSV) and 36.7 MB (JSON).
    (["enumerate", "--index", "96"], 2),
    (["enumerate", "--index", "96", "--format", "json"], 2),
    # 5,103 rows in 21 G6 boxes of 243 rows each (k l m = n).
    (["enumerate", "--index", "243"], 2),
    # Building the rows and the whole text first peaks at 10.9, 7.8 and 8.2 MB.
    # Each JSON row is one fill of its header's template: count and normal peak
    # at 0.69 and 0.34 MB.
    (["count", "--max", "5000", "--format", "json"], 3),
    (["normal", "--max", "2000", "--format", "json"], 2),
    (["series", "--max", "5000", "--out", "PATH"], 4),
    # 498 classes with their 6,699 members, formatted one class at a time: 0.09 MB
    # (json.dumps of chunks of 256 classes peaked at 11.0 MB, of 4 classes at 0.34 MB).
    (["classes", "--index", "64", "--format", "json"], 2),
    # 392,448 rows in 1,533 planes of 256 rows: chunks of at least 256 lines
    # peak at 0.3 MB, chunks of 256 whole planes at 5.8 MB.
    (["enumerate", "--index", "512", "--type", "g2"], 1),
], ids=["csv", "json", "csv-odd", "count-json", "normal-json", "series-out", "classes-json",
        "csv-g2-planes"])
def test_enumerate_streams_in_bounded_memory(argv, bound_mb, tmp_path, capsys, monkeypatch):
    path = tmp_path / "out.csv"
    argv = [str(path) if arg == "PATH" else arg for arg in argv]
    _, expected, _ = run_cli(capsys, *argv)
    expected_file = path.read_bytes() if path.exists() else None
    path.unlink(missing_ok=True)
    sink = _HashSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.digest.hexdigest() == hashlib.sha256(expected.encode()).hexdigest()
    assert (path.read_bytes() if path.exists() else None) == expected_file
    assert peak < bound_mb * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_classes_streams_in_bounded_memory(capsys, monkeypatch):
    # 108,715 subgroups in 4,108 classes (0.39 MB of CSV).  Listing every
    # subgroup and closing orbits over one set of them peaks at 33 MB.
    _, expected, _ = run_cli(capsys, "classes", "--index", "256")
    sink = _HashSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["classes", "--index", "256"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.digest.hexdigest() == hashlib.sha256(expected.encode()).hexdigest()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"


class _WriteSink:
    """Text stream that keeps the number of its writes, the size of the largest and the lines."""

    def __init__(self):
        self.writes = self.largest = self.lines = 0

    def write(self, text):
        self.writes += 1
        self.largest = max(self.largest, len(text))
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    ["normal", "--max", "20000"],  # 60,001 lines of one row each
    ["enumerate", "--index", "945"],  # G6 boxes of 945 lines each
    ["count", "--max", "20000", "--format", "json"],  # one object per piece
    ["enumerate", "--index", "256", "--format", "json"],  # one descriptor per piece
    ["classes", "--index", "64", "--format", "json"],  # one class with its members per piece
], ids=["normal", "enumerate-g6-boxes", "count-json", "enumerate-json", "classes-json"])
def test_writes_join_many_lines_and_stay_bounded(argv, capsys, monkeypatch):
    # One write per row is slow on a piped stdout, and a join of a fixed number
    # of pieces grows with the pieces (a G6 box of enumerate is n lines)
    sink = _WriteSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(argv) == 0
    assert sink.writes < sink.lines / 100, (sink.writes, sink.lines)
    assert sink.largest <= 64 * 1024, sink.largest


def test_verify_ok(capsys):
    code, out, err = run_cli(capsys, "verify", "--max", "8", "--oracle-limit", "8")
    assert code == 0
    assert "all cells match" in err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 24
    assert all(r["match"] == "true" for r in rows)


def test_verify_closed_vs_catalog_only(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max", "30", "--oracle-limit", "0")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["s_oracle"] == "" for r in rows)


def test_verify_detects_fault_injection(capsys, monkeypatch):
    # corrupt one letter-product cell; the verification must notice
    from hwcover import group
    broken = dict(group.LETTER_PRODUCT)
    broken["x", "y"] = ("z", 0, 0, 1)  # wrong translation correction
    monkeypatch.setattr(group, "LETTER_PRODUCT", broken)
    code, out, err = run_cli(capsys, "verify", "--max", "6", "--oracle-limit", "6")
    assert code == 1
    assert "MISMATCH" in err


def test_verify_mismatch_names_the_exception(capsys, monkeypatch):
    def class_count(iso, n):
        raise RuntimeError("boom")
    monkeypatch.setattr(catalog, "class_count", class_count)
    code, out, err = run_cli(capsys, "verify", "--max", "2", "--oracle-limit", "0")
    assert code == 1
    assert "MISMATCH at n=1 type=g1 (RuntimeError: boom)" in err
    assert "boom" not in out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6 and all(r["c_catalog"] == "" and r["match"] == "false" for r in rows)


def test_verify_mismatch_names_the_descriptor_whose_table_fails(capsys, monkeypatch):
    from hwcover import oracle
    victim = catalog.enumerate_g2(4)[5]
    real = oracle.descriptor_key

    def descriptor_key(d):
        if d == victim:
            raise oracle.EnumerationError("closed early")
        return real(d)
    monkeypatch.setattr(oracle, "descriptor_key", descriptor_key)
    code, out, err = run_cli(capsys, "verify", "--max", "4", "--oracle-limit", "4")
    assert code == 1
    assert f"n=4 tables_bijective=false ({victim!r}: EnumerationError: closed early)" in err
    assert "closed early" not in out


def test_verify_searches_no_deeper_than_max(capsys, monkeypatch):
    # record the search depths instead of clearing the shared search cache
    from hwcover import oracle
    depths = []
    search = oracle._tables_up_to
    monkeypatch.setattr(oracle, "_tables_up_to", lambda limit: depths.append(limit) or search(limit))
    code, out, _ = run_cli(capsys, "verify", "--max", "6", "--oracle-limit", "48")
    assert code == 0
    assert out == run_cli(capsys, "verify", "--max", "6", "--oracle-limit", "6")[1]
    assert set(depths) == {6}  # one search, to depth 6


@pytest.mark.parametrize("fmt, first_report", [("csv", "1,g1,"), ("json", '"n": 1,')])
def test_verify_writes_each_report_before_checking_the_next(fmt, first_report, capsys,
                                                            monkeypatch):
    # the reports stream: memory does not hold every report of --max at once
    from hwcover import cli, oracle
    events = []
    check = oracle.cross_check
    monkeypatch.setattr(oracle, "cross_check",
                        lambda n, **kwargs: events.append(("check", n)) or check(n, **kwargs))
    monkeypatch.setattr(cli, "_emit", lambda path, pieces: events.extend(
        ("write", piece) for piece in pieces))
    assert main(["verify", "--max", "6", "--oracle-limit", "6", "--format", fmt]) == 0
    written = next(i for i, (kind, text) in enumerate(events)
                   if kind == "write" and first_report in str(text))
    assert events.index(("check", 1)) < written < events.index(("check", 6)), events[:written + 1]


def test_exit_code_2_on_bad_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])  # missing --index
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max", "4", "--oracle-limit", "130"])  # above hard cap
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max", "4", "--oracle-limit", "129"])  # one above hard cap
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--max", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max", "4", "--oracle-limit", "-1"])  # below zero
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err
    # text that is not an integer is named as such, without the parser's private names;
    # an integer is ASCII digits after an optional '-', as in a descriptor field, so
    # int()'s other spellings (a non-ASCII digit, an underscore, spaces, a '+') are not
    for argv in (["count", "--max", "x"], ["verify", "--max", "4", "--oracle-limit", "abc"],
                 ["count", "--max", "\u0663"], ["enumerate", "--index", "1_0"],
                 ["classes", "--index", " 4 "], ["verify", "--max", "4", "--oracle-limit", "+3"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be an integer" in err and "invalid _" not in err, err
    # more digits than int() converts from text by default on Python 3.11, and above
    # the hard cap where there is no such limit: rejected without echoing the digits
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max", "4", "--oracle-limit", "9" * 5000])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--oracle-limit: must be" in err and "invalid _" not in err and "9" * 50 not in err, err


# argparse's help and error text on Python 3.10 and 3.11 at 80 columns (it wraps to the
# terminal width): the surface build_parser gives the six subcommands, pinned whole.
_OPTIONS = """
options:
  -h, --help           show this help message and exit
  {size}
  {extra}--format {{csv,json}}
  --out PATH
"""
_HELP = {
    None: """usage: hwcover [-h] {count,enumerate,classes,normal,series,verify} ...

Count and classify the finite-sheeted coverings of the Hantzsche-Wendt
manifold.

positional arguments:
  {count,enumerate,classes,normal,series,verify}
    count               counting table for 1 <= n <= MAX
    enumerate           explicit descriptors at one index
    classes             conjugacy classes at one index
    normal              summary n,type,s,c,normal for n <= MAX
    series              generating-function audit up to MAX
    verify              three-way verification for n <= MAX

options:
  -h, --help            show this help message and exit
""",
    "count": "usage: hwcover count [-h] --max MAX [--format {csv,json}] [--out PATH]\n"
             + _OPTIONS.format(size="--max MAX", extra=""),
    "enumerate": "usage: hwcover enumerate [-h] --index INDEX [--type {g1,g2,g6}]\n"
                 "                         [--format {csv,json}] [--out PATH]\n"
                 + _OPTIONS.format(size="--index INDEX", extra="--type {g1,g2,g6}\n  "),
    "classes": "usage: hwcover classes [-h] --index INDEX [--type {g1,g2,g6}]\n"
               "                       [--format {csv,json}] [--out PATH]\n"
               + _OPTIONS.format(size="--index INDEX", extra="--type {g1,g2,g6}\n  "),
    "normal": "usage: hwcover normal [-h] --max MAX [--format {csv,json}] [--out PATH]\n"
              + _OPTIONS.format(size="--max MAX", extra=""),
    "series": "usage: hwcover series [-h] --max MAX [--format {csv,json}] [--out PATH]\n"
              + _OPTIONS.format(size="--max MAX", extra=""),
    "verify": "usage: hwcover verify [-h] --max MAX [--oracle-limit K] [--format {csv,json}]\n"
              "                      [--out PATH]\n"
              + _OPTIONS.format(size="--max MAX", extra=(
                  "--oracle-limit K     fill the oracle columns for n <= K (default 16, hard\n"
                  "                       cap 128)\n  ")),
}


@pytest.mark.parametrize("command", list(_HELP), ids=lambda c: c or "hwcover")
def test_help_text_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == _HELP[command]


_SIZE = {"count": "--max", "enumerate": "--index", "classes": "--index",
         "normal": "--max", "series": "--max", "verify": "--max"}
_USAGE_ERRORS = [
    *[([cmd], f"hwcover {cmd}: error: the following arguments are required: {size}")
      for cmd, size in _SIZE.items()],
    *[([cmd, size, "0"], f"hwcover {cmd}: error: argument {size}: must be >= 1")
      for cmd, size in _SIZE.items()],
    *[([cmd, size, "3", "--format", "xml"],
       f"hwcover {cmd}: error: argument --format: invalid choice: 'xml' (choose from 'csv', 'json')")
      for cmd, size in _SIZE.items()],
    *[([cmd, size, "3", "--type", "g9"],
       f"hwcover {cmd}: error: argument --type: invalid choice: 'g9' (choose from 'g1', 'g2', 'g6')"
       if cmd in ("enumerate", "classes") else "hwcover: error: unrecognized arguments: --type g9")
      for cmd, size in _SIZE.items()],
    (["verify", "--max", "3", "--oracle-limit", "129"],
     "hwcover verify: error: argument --oracle-limit: must be <= 128, "
     "the hard cap of the coset-table search"),
]


@pytest.mark.parametrize("argv, error", _USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in _USAGE_ERRORS])
def test_usage_errors_are_pinned(argv, error, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == error


def test_readme_synopsis_names_every_option():
    # each "hwcover <cmd>" line of the README's "Command line" block names exactly the long
    # options of that subparser, in the parser's order
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    synopsis = {line.split()[1]: re.findall(r"--[a-z-]+", line.split("#")[0])
                for line in block.splitlines()}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert synopsis == {
        cmd: [opt for action in parser._actions for opt in action.option_strings
              if opt.startswith("--") and opt != "--help"]
        for cmd, parser in sub.choices.items()}


def test_exit_code_2_on_unwritable_path(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--max", "2", "--out", "/nonexistent-dir/x.csv"])
    assert exc.value.code == 2
    for fmt in ("csv", "json"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--index", "8", "--format", fmt,
                  "--out", "/nonexistent-dir/x.csv"])
        assert exc.value.code == 2
        # the error comes before any row is produced, and no count line follows
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write /nonexistent-dir/x.csv: ")
        assert "count=" not in err
        with pytest.raises(SystemExit) as exc:
            main(["classes", "--index", "8", "--format", fmt,
                  "--out", "/nonexistent-dir/x.csv"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: cannot write /nonexistent-dir/x.csv: ")
        assert out == ""
    # an empty path is a path, not stdout
    for argv in (["count", "--max", "2"], ["series", "--max", "4"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", ""])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: cannot write : ")
        assert out == ""


def _child_env() -> dict:
    """The environment of a child interpreter that imports this checkout's hwcover."""
    src = str(Path(hwcover.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_closed_stdout_pipe_exits_2_without_a_traceback():
    env = _child_env()
    # about 3 MB of rows, far more than a pipe holds, so the child is still
    # writing when the reader goes away after one line
    proc = subprocess.Popen([sys.executable, "-m", "hwcover.cli", "enumerate", "--index", "256"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"type,axis,k,l,m,u,v,w,b,c,a,e,f,d,s,t\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err
    assert err.startswith("error: cannot write stdout: [Errno 32] Broken pipe"), err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [("verify", "--max", "3", "--oracle-limit", "0"),
                                  ("enumerate", "--index", "16")], ids=["verify", "enumerate"])
def test_closed_stderr_pipe_exits_2(argv):
    # exit 1 is a verify mismatch; an I/O error on stderr is an I/O error
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hwcover.cli", *argv], env=_child_env(),
                              stdout=subprocess.DEVNULL, stderr=write_end, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2


def test_import_leaves_out_the_introspection_modules():
    # dataclasses imports inspect, which imports ast, dis and tokenize: about
    # a third of the time that importing hwcover.cli took.  The interpreter's
    # own start-up may import some of them; the check is on what the import adds.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = ("import sys; before = set(sys.modules); import hwcover.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules and m not in before])")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _json_left_unloaded(argv) -> bool:
    """Whether the command, run in a fresh child, leaves json unloaded if start-up did."""
    code = ("import os, sys; before = 'json' in sys.modules; from hwcover import cli; "
            f"code = cli.main([*{argv!r}, '--out', os.devnull]); "
            "print(code, before or 'json' not in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "0 True"  # after series' report, which --out leaves on stdout


@pytest.mark.parametrize("argv", [
    (*command, "--format", fmt)
    for command in [("count", "--max", "4"), ("enumerate", "--index", "16"), ("classes", "--index", "16"),
                    ("normal", "--max", "4"), ("series", "--max", "4"), ("verify", "--max", "4")]
    for fmt in ("csv", "json")
    # series writes its one small report by json.dumps: an optional "note" key is
    # more than a template of one header can hold
    if command[0] != "series" or fmt == "csv"
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_no_command_imports_json(argv):
    # every row, report and descriptor fills a template, so no command but series
    # --format json reaches the json encoder; a command leaves json unloaded unless
    # the interpreter's own start-up loaded it
    assert _json_left_unloaded(argv)


def test_broken_stdout_exits_2(capsys, monkeypatch):
    class BrokenSink:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", BrokenSink())
    with pytest.raises(SystemExit) as exc:
        main(["count", "--max", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "count", "--max", "12")
    _, out2, _ = run_cli(capsys, "count", "--max", "12")
    assert out1 == out2
    _, enum1, _ = run_cli(capsys, "enumerate", "--index", "12", "--format", "json")
    _, enum2, _ = run_cli(capsys, "enumerate", "--index", "12", "--format", "json")
    assert enum1 == enum2


def test_out_file_writing(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "count", "--max", "3", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("n,s_g1")
