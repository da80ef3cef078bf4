"""Workloads of the hwcover benchmark: seeded input pools and expected outputs.

A workload is a list of command slots.  Each slot is a CLI template with a
pool of values; the seed picks one value per slot, so the program only ever
sees the arguments the seed generates.  The values in one pool were chosen
to cost about the same (equal item counts where the input allows it), so
the end-to-end figures of different seeds stay comparable while a change
tuned to one index still meets other indices on other seeds.

``EXPECTED`` pins, for every command any seed can generate, the exit code,
the SHA-256 of stdout, the number of stdout lines and the number of work
items, as recorded from the CLI (``python3 perfbench/record.py`` prints the
table again).  The CLI output must stay identical byte for byte, so these
digests are the regression reference of the correctness gate.
"""

from __future__ import annotations

import random
from typing import NamedTuple


class Expected(NamedTuple):
    exit_code: int
    sha256: str
    lines: int
    items: int  # work items of the command, as defined per workload below


class Command(NamedTuple):
    argv: tuple[str, ...]
    expected: Expected


# Items of a command: verify = subgroups cross-checked (sum of s(n) for
# n <= max); classes = subgroups put into classes; enumerate = rows emitted;
# count and series = n values evaluated.  A workload's items are the sum
# over its commands.
WORKLOADS: dict[str, list[tuple[str, tuple[int, ...]]]] = {
    # Group arithmetic in two uses, with little output.  verify: backtrack
    # search to the hard cap 24, canonical labelling and coset enumeration
    # through catalog.contains for every n <= max (17 is prime, so max 16
    # and 17 differ by 51 subgroups).  classes: conjugation at an index
    # divisible by 4 (Z3 and G2: group arithmetic, then HNF re-normalisation)
    # and at an odd index (G6: no HNF).  Within each classes pool the CPU
    # time differs by less than 5% and the peak RSS by 2%.
    "oracle_conjugacy": [
        ("verify --max {} --oracle-limit 24", (16, 17)),
        ("classes --index {}", (100, 104, 116)),
        ("classes --index {}", (243, 275, 279)),
    ],
    # No group arithmetic, conjugation or oracle.  enumerate: the write
    # path, per-row CSV serialisation (213.6k-216.5k rows), and the only
    # command whose memory grows with its output.  count and series:
    # trial-division divisor sums under count_c and Fraction convolution
    # under gf_coeffs; each pool within 0.8% of its middle value.
    "bulk_closed_forms": [
        ("enumerate --index {}", (288, 312, 348)),
        ("count --max {}", (7450, 7500, 7550)),
        ("series --max {}", (24320, 24576, 24832)),
    ],
    # Tiny sizes for perfbench/selftest.py; not listed in BENCHMARK.json.
    "smoke": [
        ("verify --max 4", (0,)),
        ("classes --index 8", (0,)),
        ("enumerate --index 16", (0,)),
        ("count --max 50", (0,)),
    ],
}

# Timed at the start of every run: interpreter start, import, argparse.
SETUP = "count --max 1"

EXPECTED: dict[str, Expected] = {
    "count --max 1":
        Expected(0, "4a6aa0c26712a670c159c0361246cc55183714b8668ca0c61cd258e6139a27f2", 2, 1),
    "verify --max 16 --oracle-limit 24":
        Expected(0, "74003287c0c388d1db09ebf6e9177e7aa5a2b4bb01a0bace2226a08cb164cdb7", 49, 1365),
    "verify --max 17 --oracle-limit 24":
        Expected(0, "87c71be357dbc7d9fd3d330bb8881d126d2970ecd7da227f456d8bc1f88435bc", 52, 1416),
    "classes --index 100":
        Expected(0, "418a76d020056fc79f226b81849990b59cf60e2332a88d043d934731ad27fb7e", 591, 15314),
    "classes --index 104":
        Expected(0, "11b4f67e2151e9e27540ab7d108e8136728358c6f0fbc86a2581bb39fbf49100", 760, 16653),
    "classes --index 116":
        Expected(0, "2a1e6c92157a8814f689f16eced8d05b3353e4f9691d90b549098c763cce4b7e", 530, 16549),
    "classes --index 243":
        Expected(0, "e32174ebb6fbf7a4724c92d5f6d5b942e46726fbdd5f6c5dacf9c8dd3acf251c", 22, 5103),
    "classes --index 275":
        Expected(0, "cd3ae8fbf07071f9c3a8bd72b8a28fbf3de0284f02c13931cb1eedb8a4f43119", 19, 4950),
    "classes --index 279":
        Expected(0, "63b90d1ec15e42d10f1b12b41280a2cb84e48cedc5ea32f68b5926b700f51be7", 19, 5022),
    "enumerate --index 288":
        Expected(0, "78c779b483ecdfb95c302c7ccc035eb6e9334e98ec7af1dacd250696a45da041", 213591, 213590),
    "enumerate --index 312":
        Expected(0, "b82f4b592bd1ad2b71c7be6302c986c9087e9f0f8743a0139ad83df9cffbdc58", 216490, 216489),
    "enumerate --index 348":
        Expected(0, "ed6bf37d39fc04bb753bb945a9131179ea97fd01c869c13c038da035be9b9d0b", 215138, 215137),
    "count --max 7450":
        Expected(0, "2addb492076d3d85323f4c71bccb843e626781ebadf9c984bf2c743f59fe9824", 7451, 7450),
    "count --max 7500":
        Expected(0, "1abf03b44c900bbdf0d8d5592319d887d002c85f2445a9ec32c4d99d7aa20f11", 7501, 7500),
    "count --max 7550":
        Expected(0, "353e7beac255573168806ad81d4cd87d038360075520a10b9d2236c2a157dcf9", 7551, 7550),
    "series --max 24320":
        Expected(0, "60e03c412d6c385ba6450a9f523d459f9cf4e6ca77404a3aae4e1143653ac33c", 8, 24320),
    "series --max 24576":
        Expected(0, "60e03c412d6c385ba6450a9f523d459f9cf4e6ca77404a3aae4e1143653ac33c", 8, 24576),
    "series --max 24832":
        Expected(0, "60e03c412d6c385ba6450a9f523d459f9cf4e6ca77404a3aae4e1143653ac33c", 8, 24832),
    "verify --max 4":
        Expected(0, "442c5756d3f20a00165c29d301cc832db848c81b12ffffbee8cef2467586fab9", 13, 32),
    "classes --index 8":
        Expected(0, "013c4378b5f45398f1cbfd291002818d7535ec48fccbe450ce41e83fc4eb6c52", 32, 91),
    "enumerate --index 16":
        Expected(0, "c1dbb4072fa00cc75a7ff357037bf8ae14b0927f509ecd8ad602fd7c1458e43d", 396, 395),
    "count --max 50":
        Expected(0, "4bc88ff9d857c850ddc551bab8887836225a5d3ce0bbafa3edcc402c8b0b464d", 51, 50),
}


def command(text: str) -> Command:
    return Command(tuple(text.split()), EXPECTED[text])


def commands(workload: str, seed: int) -> list[Command]:
    """The commands one iteration of the workload runs under this seed."""
    rng = random.Random(f"{workload}/{seed}")
    return [command(template.format(rng.choice(pool)))
            for template, pool in WORKLOADS[workload]]


def all_command_texts() -> list[str]:
    """Every command any seed can generate, plus the set-up command."""
    texts = [SETUP]
    for slots in WORKLOADS.values():
        for template, pool in slots:
            texts.extend(template.format(v) for v in pool)
    return list(dict.fromkeys(texts))
