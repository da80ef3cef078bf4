"""Batch command-line surface.

Subcommands::

    count      counting table: n, s and c per isomorphism type, with totals
    enumerate  explicit subgroup descriptors at one index
    classes    conjugacy classes at one index (size + representative)
    normal     summary table n,type,s,c,normal
    series     audit of the generating-function table against the counts
    verify     three-way verification report (closed form / catalog / oracle)

Every command writes through one chunked writer, _emit, as its rows are
produced.  CSV has one route: _emit formats each row by one "%s" template
per header (a row of another length raises TypeError), or takes the lines
that ``enumerate`` formats from the blocks of ``catalog.iter_blocks`` (the
fixed part once per G2 plane or G6 box), and joins them 256 at a time.
Exit codes: 0 success (verify: everything matches), 1 verification
mismatch, 2 usage or I/O error.  Output is deterministic byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from itertools import chain, islice
from typing import Iterator, Sequence

from . import catalog, oracle

_CSV_FIELDS = ["type", "axis", "k", "l", "m", "u", "v", "w",
               "b", "c", "a", "e", "f", "d", "s", "t"]


# The CSV lines of one block of catalog.iter_blocks, per type: the head is
# formatted once from the block's params, then one line per cell.  A cell is
# written as its text, unquoted: no CSV cell of the CLI holds a comma, a quote
# or a newline except the classes representative, which _cmd_classes quotes.

def _z3_lines(params: tuple, cells) -> Iterator[str]:
    return (f"z3,,,,,,,,{lat.b},{lat.c},{lat.a},{lat.e},{lat.f},{lat.d},,\n" for lat, in cells)


def _g2_lines(params: tuple, cells) -> Iterator[str]:
    axis, k, lat = params
    head = f"g2,{axis},{k},,,,,,{lat.b},{lat.c},{lat.a},,,,"
    return (f"{head}{s},{t}\n" for s, t in cells)


def _g6_lines(params: tuple, cells) -> Iterator[str]:
    k, l, m = params
    head = f"g6,,{k},{l},{m},"
    return (f"{head}{u},{v},{w},,,,,,,,\n" for u, v, w in cells)


_LINES = {"g1": _z3_lines, "g2": _g2_lines, "g6": _g6_lines}


def _csv_lines(n: int, isos: Sequence[str]) -> Iterator[str]:
    """The CSV lines of the index-n descriptors of the given types, without building one."""
    for iso in isos:
        lines = _LINES[iso]
        for params, cells in catalog.iter_blocks(iso, n):
            yield from lines(params, cells)


def _descriptor_csv_row(d: catalog.Descriptor) -> dict:
    """The cells of d under _CSV_FIELDS, as text; a field the type does not have is empty."""
    obj = catalog.to_json_dict(d)
    return {field: str(obj.get(field, "")) for field in _CSV_FIELDS}


def descriptor_from_csv_row(row: dict) -> catalog.Descriptor:
    """Parse a csv.DictReader row; a ValueError names a missing column, extra cells or a bad field."""
    # DictReader keys the cells past the header by None, and gives the
    # columns past the last cell of a short row the value None.
    if None in row:
        raise ValueError(f"CSV row has {len(row[None])} cells more than the header")
    missing = next((key for key, val in row.items() if val is None), None)
    if missing is not None:
        raise ValueError(f"CSV row has no cell for column {missing!r}")
    return catalog.from_json_dict({key: val for key, val in row.items() if val != ""})


# Items per chunk of _emit (by default), joined by one str.join (CSV lines)
# or encoded by one json.dumps call, and written at once.  One call per item is
# about twice as slow, and one call for the whole output holds all of its text;
# 256 JSON objects encode as fast as 1024 and peak at a third of their memory.
_CHUNK = 256


def _write_json_list(fh, objs, frame: tuple[str, str] | None = None, chunk: int = _CHUNK) -> int:
    """Write json.dumps(list(objs), indent=2, sort_keys=True) + a newline, chunk objects at a time.

    json.dumps(indent=2) puts each item of a list on its own lines after "[\n"
    and before "\n]", joined by ",\n", so the chunks' items are joined the
    same way.  frame is the text of an enclosing JSON document before and
    after the list, which then nests one level deep.  Returns the number of objects.
    """
    before, after = frame or ("", "")
    newline = "\n  " if frame else "\n"
    it, count = iter(objs), 0
    while items := list(islice(it, chunk)):
        # json.dumps escapes every newline inside a string, so each raw
        # newline of its text starts a line, and nesting indents them all
        text = json.dumps(items, indent=2, sort_keys=True)[2:-2].replace("\n", newline)
        fh.write(("," if count else before + "[") + newline + text)
        count += len(items)
    fh.write((newline + "]" if count else before + "[]") + after + "\n")
    return count


@contextmanager
def _output(path: str | None):
    """The output handle: stdout, or the file at path, opened once.

    An I/O error on it, from opening it to closing it, exits with code 2.  On
    stdout (a pipe closed early, say) the interpreter's flush at exit would
    fail the same way, so the process's stdout is pointed at the null device.
    """
    try:
        if path is None:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                yield fh
    except OSError as exc:
        if path is None and sys.stdout is sys.__stdout__:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: cannot write {'stdout' if path is None else path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _write_lines(fh, lines) -> int:
    """Write lines of text, joined a chunk at a time; return their number."""
    it, count = iter(lines), 0
    while chunk := list(islice(it, _CHUNK)):
        fh.write("".join(chunk))
        count += len(chunk)
    return count


def _emit(path: str | None, fmt: str, header: Sequence[str], rows=(), objs=None,
          frame: tuple[str, str] | None = None, chunk: int = _CHUNK, lines=None) -> int:
    """Write a command's output to path (stdout when None); return the number of items.

    CSV is the header, then the given lines, already CSV text, or else the
    rows: tuples of the header's length, each cell written as its text.
    JSON is the list of objs (by default the rows keyed by the header),
    framed and chunked as in _write_json_list.
    """
    with _output(path) as fh:
        if fmt == "csv":
            fh.write(",".join(header) + "\n")
            if lines is None:
                template = ",".join(["%s"] * len(header)) + "\n"
                lines = map(template.__mod__, rows)
            return _write_lines(fh, lines)
        if objs is None:
            objs = (dict(zip(header, row)) for row in rows)
        return _write_json_list(fh, objs, frame, chunk)

# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_count(args) -> int:
    arrays = catalog.count_arrays(args.max)
    columns = [arrays[iso, kind] for kind in ("s", "c") for iso in catalog.ISO_TYPES]
    rows = ((n, s1, s2, s6, s1 + s2 + s6, c1, c2, c6, c1 + c2 + c6)
            for n, s1, s2, s6, c1, c2, c6 in zip(range(1, args.max + 1), *columns))
    header = ["n", "s_g1", "s_g2", "s_g6", "s_total", "c_g1", "c_g2", "c_g6", "c_total"]
    _emit(args.out, args.format, header, rows)
    return 0


def _cmd_enumerate(args) -> int:
    isos = (args.type,) if args.type else catalog.ISO_TYPES
    if args.format == "csv":
        count = _emit(args.out, "csv", _CSV_FIELDS, lines=_csv_lines(args.index, isos))
    else:
        ds = chain.from_iterable(catalog.iter_iso(iso, args.index) for iso in isos)
        count = _emit(args.out, "json", (), objs=map(catalog.to_json_dict, ds))
    print(f"enumerate: index={args.index} type={args.type or 'all'} count={count}",
          file=sys.stderr)
    return 0


def _cmd_classes(args) -> int:
    classes = catalog.iter_classes(args.index, args.type)
    if args.format == "csv":
        # the one CSV cell that holds commas and quotes: quoted, inner quotes doubled
        rows = ((args.index, catalog.iso_of(rep), size,
                 '"%s"' % json.dumps(catalog.to_json_dict(rep), sort_keys=True).replace('"', '""'))
                for rep, size in classes)
        _emit(args.out, "csv", ["n", "type", "size", "representative"], rows)
        return 0
    # class_count sorts before classes, so a first walk counts the classes
    document = json.dumps({"class_count": sum(1 for _ in classes), "classes": [],
                           "index": args.index}, indent=2, sort_keys=True)
    objs = ({"type": catalog.iso_of(rep), "size": size,
             "representative": catalog.to_json_dict(rep),
             "members": [catalog.to_json_dict(d) for d in catalog.conjugacy_classes([rep])[0]]}
            for rep, size in catalog.iter_classes(args.index, args.type))
    # A class has at most n members, as a subgroup lies in its normaliser, so
    # a chunk of _CHUNK // n classes holds at most _CHUNK member objects.
    _emit(args.out, "json", (), objs=objs, frame=tuple(document.split("[]")),
          chunk=max(1, _CHUNK // args.index))
    return 0


def _cmd_normal(args) -> int:
    arrays = catalog.normal_arrays(args.max)
    per_type = [zip(arrays[iso, "s"], arrays[iso, "c"], arrays[iso, "normal"])
                for iso in catalog.ISO_TYPES]
    rows = ((n, iso, *cells) for n, cells_by_type in enumerate(zip(*per_type), 1)
            for iso, cells in zip(catalog.ISO_TYPES, cells_by_type))
    _emit(args.out, args.format, ["n", "type", "s", "c", "normal"], rows)
    return 0


def _cmd_series(args) -> int:
    tables = catalog.series_tables(args.max)
    report = catalog.series_report(args.max, tables)
    if args.out is not None:
        # full coefficient tables alongside the verdicts
        formulas, table_vals = tables
        rows = ((*key, n, table, formula) for key in sorted(table_vals)
                for n, table, formula in zip(range(1, args.max + 1), table_vals[key], formulas[key]))
        _emit(args.out, "csv", ["type", "kind", "n", "table_value", "formula_value"], rows)
    if args.format == "json":
        with _output(None) as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return 0
    rows = ((r["type"], r["kind"], r["verdict"], r["first_divergent_n"] or "", r.get("note", ""))
            for r in report["rows"])
    _emit(None, "csv", ["type", "kind", "verdict", "first_divergent_n", "note"], rows)
    row3 = report["row3_label"]
    with _output(None) as fh:
        fh.write(f"# row 3 label audit: tabulated as {row3['tabulated_label']}; "
                 f"vs g1 s: {row3['vs_g1_s']}; vs g6 s: {row3['vs_g6_s']}\n")
    return 0


def _cmd_verify(args) -> int:
    # Every n is at most max, so searching deeper than max cannot fill a cell.
    reports = [oracle.cross_check(n, oracle_limit=min(args.max, args.oracle_limit))
               for n in range(1, args.max + 1)]
    ok = all(r.all_match for r in reports)
    _emit(args.out, args.format, oracle.CSV_HEADER.split(","),
          (row for r in reports for row in oracle.csv_rows(r)),
          (r.to_json_dict() for r in reports))
    if not ok:
        bad = [(f"n={row.n} type={row.iso}", row.failure)
               for r in reports for row in r.rows if not row.match]
        bad += [(f"n={r.n} tables_bijective=false", r.failure)
                for r in reports if r.tables_bijective is False]
        print("verify: MISMATCH at " + "; ".join(
            where + (f" ({why})" if why else "") for where, why in bad), file=sys.stderr)
        return 1
    print(f"verify: all cells match for n <= {args.max} "
          f"(oracle columns for n <= {min(args.max, args.oracle_limit)})",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _integer(text: str) -> int:
    if not catalog.is_int_text(text):
        raise argparse.ArgumentTypeError("must be an integer")
    return int(text)


def _positive(text: str) -> int:
    val = _integer(text)
    if val < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return val


def _oracle_limit(text: str) -> int:
    val = _integer(text)
    if val < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    if val > oracle.HARD_CAP:
        raise argparse.ArgumentTypeError(
            f"must be <= {oracle.HARD_CAP}, the hard cap of the coset-table search"
        )
    return val


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwcover",
        description="Count and classify the finite-sheeted coverings of the "
                    "Hantzsche-Wendt manifold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("count", help="counting table for 1 <= n <= MAX")
    p.add_argument("--max", type=_positive, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="explicit descriptors at one index")
    p.add_argument("--index", type=_positive, required=True)
    p.add_argument("--type", choices=catalog.ISO_TYPES, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("classes", help="conjugacy classes at one index")
    p.add_argument("--index", type=_positive, required=True)
    p.add_argument("--type", choices=catalog.ISO_TYPES, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("normal", help="summary n,type,s,c,normal for n <= MAX")
    p.add_argument("--max", type=_positive, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_normal)

    p = sub.add_parser("series", help="generating-function audit up to MAX")
    p.add_argument("--max", type=_positive, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("verify", help="three-way verification for n <= MAX")
    p.add_argument("--max", type=_positive, required=True)
    p.add_argument("--oracle-limit", type=_oracle_limit,
                   default=oracle.DEFAULT_ORACLE_LIMIT, metavar="K",
                   help=f"fill the oracle columns for n <= K (default "
                        f"{oracle.DEFAULT_ORACLE_LIMIT}, hard cap {oracle.HARD_CAP})")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
