"""Print the ``EXPECTED`` table of :mod:`workloads` from the current CLI.

    python3 perfbench/record.py

Runs every command any seed can generate once and prints one literal line
per command.  The table in ``workloads.py`` was produced this way; rerun it
only to add pool values, never to paper over changed output.
"""

from __future__ import annotations

import sys

import run
import workloads


def items(argv: tuple[str, ...]) -> int:
    """Work items of one command, as the workloads define them."""
    from hwcover import catalog

    def subgroups(n: int) -> int:
        return sum(catalog.count_s(iso, n) for iso in catalog.ISO_TYPES)

    size = int(argv[2])
    if argv[0] == "verify":
        return sum(subgroups(n) for n in range(1, size + 1))
    if argv[0] in ("classes", "enumerate"):
        return subgroups(size)
    return size


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    for text in workloads.all_command_texts():
        argv = tuple(text.split())
        out = run.run_child(argv)
        print(f'    "{text}":\n'
              f'        Expected({out.exit_code}, "{out.sha256}", {out.lines}, {items(argv)}),')
    return 0


if __name__ == "__main__":
    sys.exit(main())
