"""Batch command-line surface.

Subcommands::

    count      counting table: n, s and c per isomorphism type, with totals
    enumerate  explicit subgroup descriptors at one index
    classes    conjugacy classes at one index (size + representative)
    normal     summary table n,type,s,c,normal
    series     audit of the generating-function table against the counts
    verify     three-way verification report (closed form / catalog / oracle)

Every command builds its output as one stream of text pieces, produced as they are
needed, and writes it through one writer, _emit, which joins the pieces into writes of
about 16 KiB.  The pieces come from _csv and _json (each row by one template per
header; a CSV row of another length raises TypeError), from _json_items (a JSON list of
formatted items) or, for ``enumerate`` CSV, from the blocks of ``catalog.iter_blocks``
(one str.join per G2 plane).  A descriptor's text, CSV cell or JSON item, fills one
template per record class and indent, read from ``catalog.FIELDS``; _object lays out the
objects of the JSON templates.  ``verify`` reads the cells of each oracle.CountRow under
its nine columns once for both formats; _csv_cell writes a cell as CSV text (None empty,
a bool true or false) as _json_cell does as JSON.  Only ``series --format json`` imports
json, where it runs.
Exit codes: 0 success (verify: everything matches), 1 verification
mismatch, 2 usage or I/O error (on stdout, the --out file or stderr).  Output
is deterministic byte-for-byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from functools import cache
from itertools import chain, repeat, starmap
from operator import attrgetter, itemgetter, methodcaller
from typing import Iterator, Sequence

from . import catalog, oracle

_CSV_FIELDS = ["type", "axis", "k", "l", "m", "u", "v", "w",
               "b", "c", "a", "e", "f", "d", "s", "t"]


# The CSV text of the index-n subgroups of one type, from catalog.iter_blocks,
# one block at a time.  The cells of a Z3 block (c, e, f) are the forms
# (b, d, a) of hnf2_all(n/4c), those of a G2 plane (axis, k, H) are (s, t) in
# range(H.b) x range(H.a), and those of a G6 box (k, l, m) are (u, v, w) in
# range(l) x range(m) x range(k).  The text of a block is one str.join of its
# cells with the part of a line that the block fixes, formatted once, between
# them: Z3 joins by "e,f" the pieces of its lines around it, G2 puts its head
# before each cell "s,t\n" of the whole plane, G6 before each tail "w,...\n"
# once per (u, v).  The decimal strings are built once per command.  A cell
# is written as its text, unquoted: no CSV cell of the CLI holds a comma, a
# quote or a newline except the classes representative, which _cmd_classes
# quotes.

def _z3_text(n: int) -> Iterator[str]:
    c0 = pieces = None
    for (c, e, f), lower in catalog.iter_blocks("g1", n):
        if c != c0:  # the blocks of one c share their cells
            c0 = c
            # a line is "z3,,,,,,,,b,c,a," + "e,f" + ",d,,\n": split between the two ends
            pieces = "".join([f"z3,,,,,,,,{b},{c},{a},|,{d},,\n" for b, d, a in lower]).split("|")
        yield f"{e},{f}".join(pieces)


def _g2_text(n: int) -> Iterator[str]:
    digits = list(map(str, range(n // 2)))
    tails = [f",{t}\n" for t in digits]
    shape = cells = None
    for (axis, k, lat), _ in catalog.iter_blocks("g2", n):
        if shape != (lat.b, lat.a):  # the planes of one axis, k and H.b share their cells
            shape = lat.b, lat.a
            cells = ["", *[s + t for s in digits[:lat.b] for t in tails[:lat.a]]]
        yield f"g2,{axis},{k},,,,,,{lat.b},{lat.c},{lat.a},,,,".join(cells)


def _g6_text(n: int) -> Iterator[str]:
    digits = list(map(str, range(n)))
    tails = ["", *[f"{w},,,,,,,,\n" for w in digits]]
    for (k, l, m), _ in catalog.iter_blocks("g6", n):
        head = f"g6,,{k},{l},{m},"
        row, vs = tails[:k + 1], [f",{v}," for v in digits[:m]]
        yield "".join([(head + u + v).join(row) for u in digits[:l] for v in vs])


_TEXT = {"g1": _z3_text, "g2": _g2_text, "g6": _g6_text}


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
        raise ValueError(f"CSV row has no cell for column {catalog.shown(missing)}")
    return catalog.from_json_dict({key: val for key, val in row.items() if val != ""})


# Characters per write of _emit.  One TextIOWrapper.write per piece is slow
# on a piped stdout, and joining a fixed number of pieces does not bound
# memory: a G6 box of enumerate is n lines.
_WRITE = 1 << 14


def _json_items(texts, indent: int) -> Iterator[str]:
    """The list of item texts, as json.dumps(indent=2) writes it nested indent spaces deep."""
    pad, sep = "\n" + " " * indent, "["
    for text in texts:
        yield sep + pad + "  " + text
        sep = ","
    yield "[]" if sep == "[" else pad + "]"


def _object(items: Sequence[str], indent: int) -> str:
    """The object of the '"key": value' items, as json.dumps(indent=2) nests it indent deep."""
    pad = "\n  " + " " * indent  # before each item
    return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"


def _json_cell(v):
    """The JSON text of a cell: None as null, a bool as true or false, text quoted (no escapes)."""
    return ("null" if v is None else str(v).lower() if type(v) is bool
            else f'"{v}"' if type(v) is str else v)


def _csv_cell(v):
    """The CSV text of a verify cell: None as empty, a bool as true or false."""
    return "" if v is None else str(v).lower() if type(v) is bool else v


def _json(header: Sequence[str], rows, indent: int = 0) -> Iterator[str]:
    """The rows as a JSON list of objects keyed by the header, each one fill of its template."""
    order = sorted(range(len(header)), key=header.__getitem__)  # sort_keys=True
    template = _object([f'"{header[i]}": %s' for i in order], indent + 2)
    cells = itemgetter(*order)
    return _json_items((template % tuple(map(_json_cell, cells(row))) for row in rows), indent)


@cache
def _template(record: type, indent: int | None) -> tuple[str, attrgetter]:
    """The template of a record class's text at the indent, and the getter of its fields.

    One % fills it with json.dumps(to_json_dict(d), sort_keys=True, indent=2) nested indent
    spaces deep, or for indent None with the one-line form quoted as a CSV cell (RFC 4180).
    """
    tag = catalog.TAG_OF[record]
    _, lattice, fields = catalog.FIELDS[tag]
    nested = lattice._fields if lattice else ()
    keys = sorted([("type", f'"{tag}"', None), *(
        (field, '"%s"' if rule == "axis" else "%d",
         f"lattice.{field}" if field in nested else field) for field, rule in fields)])
    items = [f'"{key}": {value}' for key, value, _ in keys]
    template = ('"{%s}"' % ", ".join(items).replace('"', '""') if indent is None
                else _object(items, indent))
    return template, attrgetter(*(path for _, _, path in keys if path))


def _text(d: catalog.Descriptor, indent: int | None = None) -> str:
    """The text of d from the template of its record class at the indent."""
    template, fields = _template(type(d), indent)
    return template % fields(d)


def _csv(header: Sequence[str], rows) -> Iterator[str]:
    """The CSV lines of the header, then of the rows: tuples of its length, a cell as its text."""
    template = ",".join(["%s"] * len(header)) + "\n"
    return chain([",".join(header) + "\n"], map(template.__mod__, rows))


def _to_null_device(stream, process_stream) -> None:
    """After an I/O error on stream: if it is the process's own, point it at the null device.

    The interpreter flushes stdout and stderr at exit, and a flush that fails
    there changes the exit code.
    """
    if stream is process_stream:
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())


def _report(message: str) -> None:
    """Print one line to stderr; an I/O error on stderr exits with code 2."""
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:
        _to_null_device(sys.stderr, sys.__stderr__)
        raise SystemExit(2)


def _emit(path: str | None, pieces) -> None:
    """Write the text pieces to the file at path, or to stdout when path is None.

    The pieces are joined until they hold at least _WRITE characters, and each
    join is written at once.  An I/O error, from opening the file to closing
    it, exits with code 2 (a pipe closed early, say).
    """
    try:
        with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as fh:
            chunk, held = [], 0
            for piece in pieces:
                chunk.append(piece)
                held += len(piece)
                if held >= _WRITE:
                    fh.write("".join(chunk))
                    chunk, held = [], 0
            fh.write("".join(chunk))
            fh.flush()
    except OSError as exc:
        if path is None:
            _to_null_device(sys.stdout, sys.__stdout__)
        _report(f"error: cannot write {'stdout' if path is None else path}: {exc}")
        raise SystemExit(2)

# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _table(args, header: Sequence[str], rows) -> int:
    """Write the rows under the header as CSV, or as a JSON list of one object per row."""
    _emit(args.out, _csv(header, rows) if args.format == "csv"
          else chain(_json(header, rows), ["\n"]))
    return 0


def _cmd_count(args) -> int:
    arrays = catalog.count_arrays(args.max)
    columns = [arrays[iso, kind] for kind in ("s", "c") for iso in catalog.ISO_TYPES]
    rows = ((n, s1, s2, s6, s1 + s2 + s6, c1, c2, c6, c1 + c2 + c6)
            for n, s1, s2, s6, c1, c2, c6 in zip(range(1, args.max + 1), *columns))
    header = ["n", "s_g1", "s_g2", "s_g6", "s_total", "c_g1", "c_g2", "c_g6", "c_total"]
    return _table(args, header, rows)


def _cmd_enumerate(args) -> int:
    isos = (args.type,) if args.type else catalog.ISO_TYPES
    count = 0

    def counted(items, rows):
        """The items, adding rows(item) to count for each."""
        nonlocal count
        for item in items:
            count += rows(item)
            yield item

    if args.format == "csv":
        blocks = counted(chain.from_iterable(_TEXT[iso](args.index) for iso in isos),
                         methodcaller("count", "\n"))
        _emit(args.out, chain([",".join(_CSV_FIELDS) + "\n"], blocks))
    else:
        ds = chain.from_iterable(catalog.iter_iso(iso, args.index) for iso in isos)
        items = counted(map(_text, ds, repeat(2)), lambda _: 1)
        _emit(args.out, chain(_json_items(items, 0), ["\n"]))
    _report(f"enumerate: index={args.index} type={args.type or 'all'} count={count}")
    return 0


def _cmd_classes(args) -> int:
    classes = catalog.iter_classes(args.index, args.type)
    if args.format == "csv":
        rows = ((args.index, catalog.iso_of(rep), size, _text(rep)) for rep, size in classes)
        _emit(args.out, _csv(["n", "type", "size", "representative"], rows))
        return 0

    def class_text(rep, size):
        """One item of the list of classes: at most n members, as H lies in its normaliser."""
        members = map(_text, catalog.conjugacy_classes([rep])[0], repeat(8))
        return _object([f'"members": {"".join(_json_items(members, 6))}',
                        f'"representative": {_text(rep, 6)}', f'"size": {size}',
                        f'"type": "{catalog.iso_of(rep)}"'], 4)

    # class_count sorts before classes, so a first walk counts the classes
    head = f'{{\n  "class_count": {sum(1 for _ in classes)},\n  "classes": '
    items = starmap(class_text, catalog.iter_classes(args.index, args.type))
    _emit(args.out, chain([head], _json_items(items, 2), [f',\n  "index": {args.index}\n}}\n']))
    return 0


def _cmd_normal(args) -> int:
    arrays = catalog.normal_arrays(args.max)
    per_type = [zip(arrays[iso, "s"], arrays[iso, "c"], arrays[iso, "normal"])
                for iso in catalog.ISO_TYPES]
    rows = ((n, iso, *cells) for n, cells_by_type in enumerate(zip(*per_type), 1)
            for iso, cells in zip(catalog.ISO_TYPES, cells_by_type))
    return _table(args, ["n", "type", "s", "c", "normal"], rows)


def _cmd_series(args) -> int:
    tables = catalog.series_tables(args.max)
    report = catalog.series_report(args.max, tables)
    if args.out is not None:
        # full coefficient tables alongside the verdicts, one template per key
        formulas, table_vals = tables
        lines = (map(f"{iso},{kind},%s,%s,%s\n".__mod__,
                     zip(range(1, args.max + 1), table_vals[iso, kind], formulas[iso, kind]))
                 for iso, kind in sorted(table_vals))
        _emit(args.out, chain(["type,kind,n,table_value,formula_value\n"], *lines))
    if args.format == "json":
        import json

        _emit(None, [json.dumps(report, indent=2, sort_keys=True) + "\n"])
        return 0
    rows = ((r["type"], r["kind"], r["verdict"], r["first_divergent_n"] or "", r.get("note", ""))
            for r in report["rows"])
    row3 = report["row3_label"]
    footer = (f"# row 3 label audit: tabulated as {row3['tabulated_label']}; "
              f"vs g1 s: {row3['vs_g1_s']}; vs g6 s: {row3['vs_g6_s']}\n")
    header = ["type", "kind", "verdict", "first_divergent_n", "note"]
    _emit(None, chain(_csv(header, rows), [footer]))
    return 0


def _cmd_verify(args) -> int:
    # Every n is at most max, so searching deeper than max cannot fill a cell.
    limit = min(args.max, args.oracle_limit)
    bad_rows, bad_tables = [], []  # (where, why) of each failure, for the summary

    def checked():
        """The report of each n as it is made, noting its failures."""
        for n in range(1, args.max + 1):
            r = oracle.cross_check(n, oracle_limit=limit)
            bad_rows.extend((f"n={n} type={row.iso}", row.failure)
                            for row in r.rows if not row.match)
            if r.tables_bijective is False:
                bad_tables.append((f"n={n} tables_bijective=false", r.failure))
            yield r

    reports = checked()
    header = ["n", "type", "s_closed", "s_catalog", "s_oracle",
              "c_closed", "c_catalog", "c_oracle", "match"]
    # the cells of a CountRow under the header, whose type column it names iso
    cells = attrgetter(*[{"type": "iso"}.get(column, column) for column in header])
    rows = (tuple(map(_csv_cell, cells(row))) for r in reports for row in r.rows)
    template = _object(['"n": %d', '"rows": %s', '"tables_bijective": %s'], 2)
    items = (template % (r.n, "".join(_json(header, map(cells, r.rows), 4)),
                         _json_cell(r.tables_bijective)) for r in reports)
    _emit(args.out, _csv(header, rows) if args.format == "csv"
          else chain(_json_items(items, 0), ["\n"]))
    if bad_rows or bad_tables:
        _report("verify: MISMATCH at " + "; ".join(
            where + (f" ({why})" if why else "") for where, why in bad_rows + bad_tables))
        return 1
    _report(f"verify: all cells match for n <= {args.max} (oracle columns for n <= {limit})")
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


def _one_of(*choices: str) -> dict:
    """Options of an argument that takes one of choices, quoted in its message on every Python."""

    def choice(text: str) -> str:
        if text not in choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
        return text

    return dict(type=choice, metavar="{" + ",".join(choices) + "}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwcover",
        description="Count and classify the finite-sheeted coverings of the "
                    "Hantzsche-Wendt manifold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    types = {"--type": _one_of(*catalog.ISO_TYPES)}
    limit = {"--oracle-limit": dict(
        type=_oracle_limit, default=oracle.DEFAULT_ORACLE_LIMIT, metavar="K",
        help=f"fill the oracle columns for n <= K (default "
             f"{oracle.DEFAULT_ORACLE_LIMIT}, hard cap {oracle.HARD_CAP})")}
    # Built per call, as perfbench/tracer.py rebinds the _cmd_* globals after import.
    commands = [
        ("count", "counting table for 1 <= n <= MAX", "--max", {}, _cmd_count),
        ("enumerate", "explicit descriptors at one index", "--index", types, _cmd_enumerate),
        ("classes", "conjugacy classes at one index", "--index", types, _cmd_classes),
        ("normal", "summary n,type,s,c,normal for n <= MAX", "--max", {}, _cmd_normal),
        ("series", "generating-function audit up to MAX", "--max", {}, _cmd_series),
        ("verify", "three-way verification for n <= MAX", "--max", limit, _cmd_verify),
    ]
    for name, summary, size, options, func in commands:
        p = sub.add_parser(name, help=summary)
        p.add_argument(size, type=_positive, required=True)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", default="csv", **_one_of("csv", "json"))
        p.add_argument("--out", metavar="PATH")
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
