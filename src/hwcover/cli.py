"""Batch command-line surface.

Subcommands::

    count      counting table: n, s and c per isomorphism type, with totals
    enumerate  explicit subgroup descriptors at one index
    classes    conjugacy classes at one index (size + representative)
    normal     summary table n,type,s,c,normal
    series     audit of the generating-function table against the counts
    verify     three-way verification report (closed form / catalog / oracle)

Exit codes: 0 success (verify: everything matches), 1 verification mismatch,
2 usage or I/O error.  Output is deterministic byte-for-byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from itertools import islice
from typing import Sequence

from . import catalog, oracle

_CSV_FIELDS = ["type", "axis", "k", "l", "m", "u", "v", "w",
               "b", "c", "a", "e", "f", "d", "s", "t"]


def _csv_row(d: catalog.Descriptor) -> tuple:
    """The cells of d under _CSV_FIELDS; a field the type does not have is empty."""
    if isinstance(d, catalog.Z3Descriptor):
        lat = d.lattice
        return ("z3", "", "", "", "", "", "", "", lat.b, lat.c, lat.a, lat.e, lat.f, lat.d, "", "")
    if isinstance(d, catalog.G2Descriptor):
        lat = d.lattice
        return ("g2", d.axis, d.k, "", "", "", "", "", lat.b, lat.c, lat.a, "", "", "", d.s, d.t)
    return ("g6", "", d.k, d.l, d.m, d.u, d.v, d.w, "", "", "", "", "", "", "", "")


def _descriptor_csv_row(d: catalog.Descriptor) -> dict:
    return dict(zip(_CSV_FIELDS, _csv_row(d)))


def descriptor_from_csv_row(row: dict) -> catalog.Descriptor:
    obj = {key: val for key, val in row.items() if val != ""}
    return catalog.from_json_dict(obj)


def _write_csv(fh, header: Sequence[str], rows) -> int:
    """Write the header, then the rows of any iterable as they come; return their number."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    count = 0
    for row in rows:
        writer.writerow(row)
        count += 1
    return count


def _csv_text(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    _write_csv(buf, header, rows)
    return buf.getvalue()


# Objects per json.dumps call in _write_json_list.  One call per object is
# about twice as slow, and one call for the whole list holds all of its text.
# The encoder holds about 1.6 kB of fragments per object of a chunk; 256
# objects encode as fast as 1024 and peak at a third of their memory.
_JSON_CHUNK = 256


def _write_json_list(fh, objs) -> int:
    """Write the bytes of _json_text(list(objs)), encoding a chunk of objects at a time.

    json.dumps(indent=2) puts each item of a list on its own lines after
    "[\n" and before "\n]", joined by ",\n", so the chunks' items are joined
    the same way.  Returns the number of objects.
    """
    it = iter(objs)
    count = 0
    while chunk := list(islice(it, _JSON_CHUNK)):
        fh.write(",\n" if count else "[\n")
        fh.write(json.dumps(chunk, indent=2, sort_keys=True)[2:-2])
        count += len(chunk)
    fh.write("\n]\n" if count else "[]\n")
    return count


def _table_text(fmt: str, header: Sequence[str], rows) -> str:
    """Rows under a header as CSV, or as a JSON list of objects keyed by it."""
    if fmt == "json":
        return _json_text([dict(zip(header, row)) for row in rows])
    return _csv_text(header, rows)


@contextmanager
def _output(path: str | None):
    """The output handle: stdout, or the file at path, opened once.

    An I/O error on the file, from opening it to closing it, exits with code 2.
    """
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _emit(text: str, path: str | None) -> None:
    with _output(path) as fh:
        fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"

# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_count(args) -> int:
    arrays = catalog.count_arrays(args.max)
    rows = []
    for n in range(1, args.max + 1):
        s = [arrays[iso, "s"][n - 1] for iso in catalog.ISO_TYPES]
        c = [arrays[iso, "c"][n - 1] for iso in catalog.ISO_TYPES]
        rows.append([n, *s, sum(s), *c, sum(c)])
    header = ["n", "s_g1", "s_g2", "s_g6", "s_total", "c_g1", "c_g2", "c_g6", "c_total"]
    _emit(_table_text(args.format, header, rows), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    if args.type:
        ds = catalog.iter_iso(args.type, args.index)
    else:
        ds = catalog.iter_index(args.index)
    with _output(args.out) as fh:
        if args.format == "json":
            count = _write_json_list(fh, map(catalog.to_json_dict, ds))
        else:
            count = _write_csv(fh, _CSV_FIELDS, map(_csv_row, ds))
    print(f"enumerate: index={args.index} type={args.type or 'all'} count={count}",
          file=sys.stderr)
    return 0


def _cmd_classes(args) -> int:
    classes = catalog.iter_classes(args.index, args.type)
    if args.format == "json":
        # the class count precedes the classes, so the JSON is built whole
        payload = [
            {
                "type": catalog.iso_of(rep),
                "size": size,
                "representative": catalog.to_json_dict(rep),
                "members": [catalog.to_json_dict(d) for d in catalog.conjugacy_classes([rep])[0]],
            }
            for rep, size in classes
        ]
        _emit(_json_text({"index": args.index, "class_count": len(payload),
                          "classes": payload}), args.out)
    else:
        rows = ([args.index, catalog.iso_of(rep), size,
                 json.dumps(catalog.to_json_dict(rep), sort_keys=True)]
                for rep, size in classes)
        with _output(args.out) as fh:
            _write_csv(fh, ["n", "type", "size", "representative"], rows)
    return 0


def _cmd_normal(args) -> int:
    arrays = catalog.normal_arrays(args.max)
    rows = [[n, iso, *(arrays[iso, kind][n - 1] for kind in ("s", "c", "normal"))]
            for n in range(1, args.max + 1) for iso in catalog.ISO_TYPES]
    _emit(_table_text(args.format, ["n", "type", "s", "c", "normal"], rows), args.out)
    return 0


def _cmd_series(args) -> int:
    tables = catalog.series_tables(args.max)
    report = catalog.series_report(args.max, tables)
    if args.out is not None:
        # full coefficient tables alongside the verdicts
        formulas, table_vals = tables
        rows = [[*key, n, table_vals[key][n - 1], formulas[key][n - 1]]
                for key in sorted(table_vals) for n in range(1, args.max + 1)]
        _emit(_csv_text(["type", "kind", "n", "table_value", "formula_value"], rows), args.out)
    if args.format == "json":
        sys.stdout.write(_json_text(report))
    else:
        rows = [
            [r["type"], r["kind"], r["verdict"], r["first_divergent_n"] or "",
             r.get("note", "")]
            for r in report["rows"]
        ]
        row3 = report["row3_label"]
        sys.stdout.write(
            _csv_text(["type", "kind", "verdict", "first_divergent_n", "note"], rows)
            + f"# row 3 label audit: tabulated as {row3['tabulated_label']}; "
            f"vs g1 s: {row3['vs_g1_s']}; vs g6 s: {row3['vs_g6_s']}\n")
    return 0


def _cmd_verify(args) -> int:
    # Every n is at most max, so searching deeper than max cannot fill a cell.
    reports = [oracle.cross_check(n, oracle_limit=min(args.max, args.oracle_limit))
               for n in range(1, args.max + 1)]
    ok = all(r.all_match for r in reports)
    if args.format == "json":
        _emit(_json_text([r.to_json_dict() for r in reports]), args.out)
    else:
        rows = [row for r in reports for row in oracle.csv_rows(r)]
        _emit(_csv_text(oracle.CSV_HEADER.split(","), rows), args.out)
    if not ok:
        bad = [
            f"n={row.n} type={row.iso}" + (f" ({row.failure})" if row.failure else "")
            for r in reports for row in r.rows if not row.match
        ] + [
            f"n={r.n} tables_bijective=false" + (f" ({r.failure})" if r.failure else "")
            for r in reports if r.tables_bijective is False
        ]
        print("verify: MISMATCH at " + "; ".join(bad), file=sys.stderr)
        return 1
    print(f"verify: all cells match for n <= {args.max} "
          f"(oracle columns for n <= {min(args.max, args.oracle_limit)})",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _positive(text: str) -> int:
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return val


def _oracle_limit(text: str) -> int:
    val = int(text)
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
