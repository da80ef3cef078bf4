"""What the README and the demos read: the package's top-level names, and each demo's output."""

import doctest
import hashlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hwcover

DEMOS = Path(__file__).parents[1] / "demos"
README = Path(__file__).parents[1] / "README.md"

# SHA-256 of each demo's stdout
DEMO_DIGESTS = {
    "01_group_arithmetic.py": "4eebdbaff726112a4eb324ffc97a50402b9b45daa5275b239d0f1776f037238c",
    "02_subgroups_and_descriptors.py":
        "983ebc210fdcc5e3c959b5268cca173470c9e269a1eb34a6efa42e64772b6b75",
    "03_counting_coverings.py": "9885b17b335ee836fe4c93c9a96ff82601a6035e95d01cabd269d7d361f02024",
    "04_dirichlet_series.py": "b5f324b52895018c1ba5b9b7dd8c80c713b4545daadddb6f25651c8d7b2f6036",
    "05_brute_force_crosscheck.py":
        "ebb2f6fa8024ddf8caea7ece74aae21b798abf9440622d1d1af67d496659df95",
}


def test_every_demo_has_a_digest():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_pinned(name):
    src = str(Path(hwcover.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True, env=env,
                          timeout=120, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]


def test_top_level_names_are_the_readme_and_demo_api():
    names = {name for name in hwcover.__all__
             if not isinstance(getattr(hwcover, name), types.ModuleType)}
    assert names == {
        "Element", "GENERATORS", "IDENTITY", "eval_word",
        "class_count", "contains", "count_s", "enumerate_z3", "enumerate_g2", "enumerate_g6",
        "generators", "index_of", "cross_check", "descriptor_to_table",
    }


def test_readme_doctest():
    # the README's examples, as python -m doctest README.md runs them
    failed, attempted = doctest.testfile(str(README), module_relative=False, report=False,
                                         encoding="utf-8")
    assert attempted > 0 and failed == 0
