"""Layer microbenchmarks: nanoseconds per call of hwcover's hot functions.

Operands come from the inputs the seed gives the workloads: descriptors of
the seed's ``classes`` and ``enumerate`` indices, coset tables of the seed's
``verify`` maximum, divisor arguments up to the seed's ``count`` maximum and
coefficient series of the seed's ``series`` length.  Every trace
run reports every microbenchmark, so the figures of one seed can be compared
across workloads.
"""

from __future__ import annotations

import csv
import io
import random
import statistics
from time import perf_counter_ns

import workloads

ROUNDS = 5


def _size(workload: str, seed: int, slot: int = 0) -> int:
    """The size argument (``--max`` or ``--index``) of one command slot."""
    return int(workloads.commands(workload, seed)[slot].argv[2])


def ns_per_call(fn, operands: list[tuple], rounds: int = ROUNDS) -> float:
    """Median over rounds of the mean time per call across the operands."""
    times = []
    for _ in range(rounds):
        t0 = perf_counter_ns()
        for op in operands:
            fn(*op)
        times.append((perf_counter_ns() - t0) / len(operands))
    return statistics.median(times)


def run(seed: int) -> dict:
    from hwcover import arith, catalog, cli, lattice, oracle
    from hwcover.group import GENERATORS, SIGNS

    rng = random.Random(f"micro/{seed}")
    even = catalog.enumerate_index(_size("oracle_conjugacy", seed, 1))
    odd = catalog.enumerate_index(_size("oracle_conjugacy", seed, 2))
    ds = rng.sample(even, 1500) + rng.sample(odd, 500)
    conjugators = list(GENERATORS.values())
    gens = [g for d in ds for g in catalog.generators(d)]
    partners = rng.sample(gens, len(gens))

    z3 = [d.lattice for d in ds if isinstance(d, catalog.Z3Descriptor)]
    g2 = [d.lattice for d in ds if isinstance(d, catalog.G2Descriptor)]
    letters = ("x", "y", "z")
    # The sign flips that conjugating by a generator applies to the lattices.
    hnf2_ops = [([(u, -v) for u, v in lat.columns()],) for lat in g2]
    hnf3_ops = []
    transform3_ops = []
    for lat in z3:
        signs = SIGNS[rng.choice(letters)]
        hnf3_ops.append(([tuple(s * u for s, u in zip(signs, col)) for col in lat.columns()],))
        transform3_ops.append((lat, signs))
    hnf2_ns = ns_per_call(lattice.hnf2_of, hnf2_ops)
    hnf3_ns = ns_per_call(lattice.hnf3_of, hnf3_ops)

    # Membership as coset enumeration asks it: a generator of the subgroup
    # times a generator letter (sometimes inside, mostly not).
    contains_ops = [(d, g * rng.choice(conjugators))
                    for d in ds for g in catalog.generators(d)]

    max_n = _size("oracle_conjugacy", seed, 0)
    tables = oracle.low_index(max_n, search_limit=max_n)
    oracle._tables_up_to.cache_clear()
    canonical_ops = [(t, rng.randrange(t.degree)) for t in tables]

    count_max = _size("bulk_closed_forms", seed, 1)
    divisor_ops = [(n,) for n in rng.sample(range(1, count_max + 1), 4000)]
    series_n = _size("bulk_closed_forms", seed, 2)
    convolve_ops = [(arith.zeta_coeffs(1, series_n), arith.zeta_coeffs(2, series_n))]

    rows = rng.sample(catalog.enumerate_index(_size("bulk_closed_forms", seed, 0)), 4000)
    writer = csv.DictWriter(io.StringIO(), fieldnames=cli._CSV_FIELDS, lineterminator="\n")

    def csv_row(d):
        writer.writerow(cli._descriptor_csv_row(d))

    def metric(value: float) -> dict:
        return {"value": value, "unit": "ns"}

    return {
        "group.mul_ns": metric(ns_per_call(lambda a, b: a * b, list(zip(gens, partners)))),
        "group.conjugate_ns": metric(ns_per_call(
            lambda g, v: g.conjugated_by(v),
            [(g, rng.choice(conjugators)) for g in gens])),
        "lattice.hnf_ns": metric((hnf2_ns * len(hnf2_ops) + hnf3_ns * len(hnf3_ops))
                                 / (len(hnf2_ops) + len(hnf3_ops))),
        "lattice.hnf2_ns": metric(hnf2_ns),
        "lattice.hnf3_ns": metric(hnf3_ns),
        "lattice.transform3_ns": metric(ns_per_call(lattice.transform3, transform3_ops)),
        "catalog.contains_ns": metric(ns_per_call(catalog.contains, contains_ops)),
        "catalog.conjugate_ns": metric(ns_per_call(
            catalog.conjugate_descriptor, [(d, rng.choice(conjugators)) for d in ds])),
        "oracle.canonical_ns": metric(ns_per_call(oracle.canonical_table, canonical_ops)),
        "arith.divisors_ns": metric(ns_per_call(arith.divisors, divisor_ops)),
        "arith.convolve_ns": metric(ns_per_call(arith.convolve, convolve_ops, rounds=3)),
        "cli.row_ns": metric(ns_per_call(csv_row, [(d,) for d in rows])),
    }
