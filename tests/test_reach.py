"""Every function of the package runs in some command, or has a recorded reason to stay.

A child process profiles every call from before ``import hwcover.cli`` through
every subcommand in both formats, with ``--type`` and ``--out``, one usage
error, one unwritable ``--out`` and one unwritable stdout.  A function that
none of these calls must be in NOT_RUN with its reasons, and a function in
NOT_RUN must not run.  A helper takes the reasons of the functions that call it.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import hwcover

PACKAGE = pathlib.Path(hwcover.__file__).resolve().parent

PERFBENCH = "read by perfbench/ by name"
WITNESS = "test witness or reference"
API = "README or demo library API"
INPUT = "reader of outside input (descriptor JSON and CSV)"

NOT_RUN = {
    "arith.sigma0": (API,),
    "arith.sigma1": (WITNESS,),
    "arith.sigma2": (WITNESS,),
    "arith.d3": (API, WITNESS),
    "arith.omega": (API,),
    "arith.d3_alternating": (API, WITNESS),
    "arith.zeta_coeffs": (API, PERFBENCH),
    "arith.convolve": (API, PERFBENCH),
    "arith.zeta_product": (API,),
    "arith.gf_coeffs": (PERFBENCH, WITNESS),
    "catalog.normal_counts": (API,),
    "catalog.enumerate_index": (PERFBENCH,),
    "catalog.generators": (API,),
    "catalog.coset_labels.<locals>.key": (API,),
    "catalog.contains": (API,),
    "catalog.to_json_dict": (WITNESS, PERFBENCH),
    "catalog._Shown.repr": (INPUT,),
    "catalog._Shown.repr1": (INPUT,),
    "catalog._int_field": (INPUT,),
    "catalog.from_json_dict": (INPUT,),
    "cli._descriptor_csv_row": (PERFBENCH,),
    "cli.descriptor_from_csv_row": (INPUT,),
    "group.AffineIso.then": (API,),
    "group.AffineIso.apply": (API,),
    "group.AffineIso.identity": (WITNESS,),
    "group.AffineIso.__str__": (API,),
    "group.Element.conjugated_by": (API, PERFBENCH),
    "group.Element.exponents": (WITNESS,),
    "group.Element.to_affine": (API,),
    "group.Element.__str__": (API,),
    "group.translation": (API,),
    "oracle._Images.perms": (API,),
    "oracle.CosetTable.__new__": (API,),
    "oracle.CosetTable._make": (API,),
    "oracle.CosetTable.__post_init__": (API, PERFBENCH),
    "oracle._inverse_perm": (API,),
    "oracle._relabeled": (API,),
    "oracle._row_major": (API, PERFBENCH),
    "oracle.low_index": (API, PERFBENCH),
    "oracle.table_key": (API,),
    "oracle.stabilizer_type": (API,),
    "oracle.canonical_table": (API, PERFBENCH),
    "oracle.classes_of": (API, PERFBENCH),
    "oracle.descriptor_to_table": (API,),
    "oracle.CrossCheckReport.all_match": (API,),
}

# argv: the package directory, a scratch directory, the file for the (file name,
# first line) of each called code object of the package
CHILD = """
import json, os, sys
package, scratch, result = sys.argv[1:]
called = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and os.path.dirname(code.co_filename) == package:
        called.add((os.path.basename(code.co_filename), code.co_firstlineno))

sys.setprofile(profile)
from hwcover import cli
runs = [[*command, *fmt] for command in (
    ["count", "--max", "12"], ["enumerate", "--index", "12"],
    ["enumerate", "--index", "8", "--type", "g2"], ["classes", "--index", "12"],
    ["classes", "--index", "8", "--type", "g6"], ["normal", "--max", "12"],
    ["series", "--max", "12"], ["verify", "--max", "8", "--oracle-limit", "8"])
    for fmt in ([], ["--format", "json"])]
runs += [["series", "--max", "12", "--out", os.path.join(scratch, "series.csv")],
         ["count", "--max", "0"],
         ["count", "--max", "2", "--out", os.path.join(scratch, "no", "such.csv")]]
for argv in runs:
    try:
        cli.main(argv)
    except SystemExit:
        pass
sys.stdout = open(os.devnull)  # a stdout that refuses writes
try:
    cli.main(["count", "--max", "2"])
except SystemExit:
    pass
sys.setprofile(None)
with open(result, "w") as fh:
    json.dump(sorted(called), fh)
"""


def functions() -> dict[tuple[str, int], str]:
    """The 'module.qualname' of each function of the package, by (file name, first line)."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a code object starts at its first decorator
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[path.name, first] = f"{path.stem}.{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, path, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef)
                     else prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path, "")
    return found


def test_each_function_no_command_runs_has_a_reason(tmp_path):
    result = tmp_path / "called.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", CHILD, str(PACKAGE), str(tmp_path), str(result)],
                   env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=120, check=True)
    called = {tuple(site) for site in json.loads(result.read_text())}
    not_run = {name for site, name in functions().items() if site not in called}
    assert sorted(not_run - NOT_RUN.keys()) == []  # no command runs them, and no reason given
    assert sorted(NOT_RUN.keys() - not_run) == []  # a command runs them, or they are gone
