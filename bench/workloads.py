"""The four benchmark workloads: the CLI commands of one pass and the inputs
generated from the workload seed. Standard library only, so that it can be
imported before the BLAS thread pools are pinned."""

import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("fem-converge", "disk-oracle", "cn-march", "boundary-checks")

# Modules that the handlers of each workload's commands import; loading them
# is the set-up cost every impedbench invocation of that workload pays.
SETUP_IMPORTS = {
    "fem-converge": ("numpy", "impedbench.fem", "impedbench.models", "impedbench.reports"),
    "disk-oracle": ("impedbench.models",),
    "cn-march": ("numpy", "impedbench.fem"),
    "boundary-checks": (
        "json",
        "numpy",
        "impedbench.circle",
        "impedbench.extensions",
        "impedbench.fixtures",
    ),
}

DISK_ZETA = 0.5
DISK_M_MAX = 8
MARCH_N, MARCH_ZETA, MARCH_STEPS, MARCH_DT = 24, 1.0, 1000, 0.001
COEFFICIENT_FILE = "coefficient.json"  # fixed name: the basename is part of the gate label


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass and the files it writes."""

    label: str
    argv: tuple
    outputs: tuple


def cli_seed(seed: int) -> int:
    """The --seed value handed to the CLI: the workload seed modulo 2**32."""
    return seed % (1 << 32)


def commands(workload: str, seed: int, workdir: str) -> list:
    """The closed-loop command sequence of one pass, outputs under workdir."""

    def out(name):
        return os.path.join(workdir, name)

    s = str(cli_seed(seed))
    if workload == "fem-converge":
        return [
            Command(
                "converge",
                ("converge", "--shape", "disk_polygon", "--levels", "4,8,12",
                 "--zeta", "0.5", "--out", out("converge.json")),
                ("converge.json",),
            )
        ]
    if workload == "disk-oracle":
        return [
            Command(
                "disk",
                ("disk", "--zeta", str(DISK_ZETA), "--m-max", str(DISK_M_MAX),
                 "--out", out("disk.json")),
                ("disk.json",),
            )
        ]
    if workload == "cn-march":
        return [
            Command(
                "march",
                ("march", "--n", str(MARCH_N), "--zeta", str(MARCH_ZETA),
                 "--steps", str(MARCH_STEPS), "--dt", str(MARCH_DT), "--seed", s,
                 "--out", out("march.csv")),
                ("march.csv",),
            )
        ]
    if workload == "boundary-checks":
        sections = "16,32,64,128,256"
        coef = os.path.join(workdir, COEFFICIENT_FILE)
        return [
            Command("green-check",
                    ("green-check", "--fixture", "transport-64", "--seed", s,
                     "--out", out("green.json")),
                    ("green.json",)),
            Command("cayley",
                    ("extension", "cayley", "--fixture", "transport-64", "--seed", s,
                     "--out", out("cayley.json")),
                    ("cayley.json",)),
            Command("rank",
                    ("extension", "rank", "--fixture", "transport2-48", "--rank", "2",
                     "--seed", s, "--out", out("rank.json")),
                    ("rank.json",)),
            Command("mdiss",
                    ("extension", "mdiss", "--fixture", "transport2-48", "--seed", s,
                     "--out", out("mdiss.json")),
                    ("mdiss.json",)),
            Command("gate-power",
                    ("gate", "--zeta", "power:a=0.3", "--sections", sections,
                     "--out", out("gate-power.csv")),
                    ("gate-power.csv", "gate-power.json")),
            Command("gate-file",
                    ("gate", "--zeta", "file:" + coef, "--sections", sections,
                     "--out", out("gate-file.csv")),
                    ("gate-file.csv", "gate-file.json")),
            Command("lq",
                    ("lq", "--zeta", "power:a=0.3", "--out", out("lq.json")),
                    ("lq.json",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, workdir: str) -> None:
    """Write the seeded input files a workload reads."""
    if workload != "boundary-checks":
        return
    # 64 uniform samples of a smooth seeded coefficient with positive real
    # part; the CLI interpolates them, which takes the gate's sampled branch.
    rng = random.Random(seed)
    modes = [(k, rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15),
              rng.uniform(-0.1, 0.1)) for k in (1, 2, 3)]
    samples = []
    for j in range(64):
        theta = -math.pi + 2.0 * math.pi * j / 64
        re = 1.0 + sum(a * math.cos(k * theta) + b * math.sin(k * theta) for k, a, b, _ in modes)
        im = sum(c * math.sin(k * theta) for k, _, _, c in modes)
        samples.append([re, im])
    with open(os.path.join(workdir, COEFFICIENT_FILE), "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
