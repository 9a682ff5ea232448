"""Seeded job generation for the benchmark workloads.

A workload is an endless sequence of *cycles*. Every cycle holds one job
of each kind the workload defines, in a fixed order, so a run made of
whole cycles always has the same mix of job sizes whatever the seed;
the seed only moves the details inside each job (recipe shapes, signs,
Chern class coefficients, vertex perturbations). Inputs of cycle ``c``
come from ``Random(f"{workload}-{seed}-{c}")``, so the same seed always
gives byte-identical files.

Each job carries the CLI arguments (relative to the directory its files
are written to) and the parameters its output oracle needs; nothing here
imports fibresum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles

WORKLOADS = ("collapse", "wide", "linking")

# Collapse: flippable copies per enumerate job, one job per value in each
# cycle. 2^k stays within the CLI's default cap, so the expected answer
# does not depend on sampling. Every copy costs work per assignment, so
# the Tw copies fill each recipe up to the 27 copies that the recipe of
# solve --primes 3,5 has, and the seed does not change a job's size.
COLLAPSE_FLIPPABLE = (9, 10, 11, 12)
COLLAPSE_COPIES = 27
# Wide: independent Lagrangian tori per record, one job per value.
WIDE_PAIRS = (7, 8, 9, 10)
WIDE_COEFFICIENTS = (-7, -5, -3, 3, 5, 7)
# Linking: vertices per component. Borromean rings with their axis stop at
# 16: at 32 one job takes two thirds of a cycle, so a run would hold too few
# jobs for a steady median and tail. The Hopf link covers N = 32.
BORROMEAN_SIZES = (8, 16)
HOPF_SIZES = (8, 16, 32)
# Vertex offsets are k/1024 with |k| <= 16, at most 1/64 per coordinate,
# far below the unit separation of the bundled curves.
PERTURB_DENOMINATOR = 1024
PERTURB_MAX = 16

BORROMEAN = (
    ((2, -1, 0), (2, 1, 0), (-2, 1, 0), (-2, -1, 0)),
    ((0, 2, -1), (0, 2, 1), (0, -2, 1), (0, -2, -1)),
    ((-1, 0, 2), (1, 0, 2), (1, 0, -2), (-1, 0, -2)),
)
BORROMEAN_AXIS = ((-4, -4, -4), (4, 4, 4), (28, -20, 4), (20, -28, -4))
HOPF = (
    ((0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)),
    ((1, 1, 1), (1, 3, 1), (1, 3, -1), (1, 1, -1)),
)


@dataclass
class Job:
    """One CLI invocation: its arguments, input files and expected answer."""

    name: str
    argv: list[str]
    files: dict[str, str]
    check: str
    expect: dict


def cycle(workload: str, seed: int, index: int) -> list[Job]:
    """The jobs of cycle `index` of a workload, generated from the seed."""
    rng = random.Random(f"{workload}-{seed}-{index}")
    if workload == "collapse":
        return [_solve_job(index)] + [
            _collapse_job(rng, index, k) for k in COLLAPSE_FLIPPABLE
        ]
    if workload == "wide":
        return [_wide_job(rng, index, pairs) for pairs in WIDE_PAIRS]
    if workload == "linking":
        return [_borromean_job(rng, index, n) for n in BORROMEAN_SIZES] + [
            _hopf_job(rng, index, n) for n in HOPF_SIZES
        ]
    raise ValueError(f"unknown workload {workload!r}")


def another_cycle(elapsed: float, cycles_done: int, seconds: float) -> bool:
    """Whether a run of `seconds` starts another cycle: always the first,
    then only while at least half an average cycle of time remains. A run
    thus holds round(seconds / cycle time) cycles, so small changes in
    speed rarely change the number of jobs, and with it the rank that the
    tail percentile picks."""
    if cycles_done == 0:
        return True
    return elapsed + 0.5 * elapsed / cycles_done < seconds


def write_files(job: Job, directory: Path) -> None:
    for name, text in job.files.items():
        (directory / name).write_text(text, encoding="utf-8")


# -- collapse ---------------------------------------------------------------


def _solve_job(index: int) -> Job:
    return Job(
        name=f"c{index}-solve35",
        argv=["solve", "--primes", "3,5", "--output", "machine"],
        files={},
        check="solve",
        expect={"primes": [3, 5]},
    )


def _signs(rng: random.Random, count: int) -> str:
    return " ".join(rng.choice("+-") for _ in range(count))


def _collapse_job(rng: random.Random, index: int, flippable: int) -> Job:
    """T4 glued along Tx once, Ty a times, Tz b times and Tw m times."""
    a = rng.randint(1, flippable - 1)
    b = flippable - a
    m = COLLAPSE_COPIES - 1 - flippable
    name = f"c{index}-collapse{flippable}"
    text = "\n".join(
        [
            f"# {name}: a = {a}, b = {b}, m = {m}",
            "seed = 0",
            "",
            "[manifold T4]",
            "builtin = T4",
            "",
            "[recipe collapse]",
            "manifold = T4",
            "glue = Tx +",
            f"glue = Ty {_signs(rng, a)}",
            f"glue = Tz {_signs(rng, b)}",
            "glue = Tw " + " ".join("+" * m),
            "",
            "[task enumerate]",
            "recipe = collapse",
            "",
        ]
    )
    return Job(
        name=name,
        argv=["enumerate", "--config", f"{name}.cfg", "--output", "machine"],
        files={f"{name}.cfg": text},
        check="collapse",
        expect={"a": a, "b": b, "m": m},
    )


# -- wide --------------------------------------------------------------------


def _wide_coefficients(rng: random.Random, pairs: int) -> list[int]:
    while True:
        coeffs = [rng.choice(WIDE_COEFFICIENTS) for _ in range(pairs)]
        if len(oracles.wide_divisibilities(coeffs)) > 1:
            return coeffs


def _wide_job(rng: random.Random, index: int, pairs: int) -> Job:
    """Simply connected record (e = 24, sigma = -16, b2 = 22) whose tracked
    lattice is `pairs` hyperbolic pairs F_i, G_i; the recipe glues each
    Lagrangian F_i once. The config also runs the T4 gate and a build."""
    coeffs = _wide_coefficients(rng, pairs)
    n = rng.randint(3, 24)
    dim = 2 * pairs
    name = f"c{index}-wide{pairs}"
    basis = [f"F{i + 1}" for i in range(pairs)] + [f"G{i + 1}" for i in range(pairs)]
    lines = [
        f"# {name}: c1 = {coeffs}, n = {n}",
        "seed = 0",
        "",
        "[manifold T4]",
        "builtin = T4",
        "",
        "[manifold M]",
        "euler = 24",
        "signature = -16",
        "b1 = 0",
        "b2 = 22",
        "simply_connected = true",
        "basis = " + " ".join(basis),
    ]
    for i in range(dim):
        partner = (i + pairs) % dim
        lines.append("pairing_row = " + " ".join("1" if j == partner else "0" for j in range(dim)))
    lines.append("c1 = " + " ".join(str(c) for c in coeffs + [0] * pairs))
    for i in range(pairs):
        klass = ["0"] * dim
        dual = ["0"] * dim
        klass[i] = "1"
        dual[pairs + i] = "1"
        lines += [
            "",
            f"[torus F{i + 1}]",
            "manifold = M",
            "class = " + " ".join(klass),
            "kind = lagrangian",
            "dual = " + " ".join(dual),
            "parallel = true",
        ]
    lines += ["", "[recipe wide]", "manifold = M"]
    lines += [f"glue = F{i + 1} {_signs(rng, 1)}" for i in range(pairs)]
    for kind in ("verify", "build"):
        lines += ["", f"[task {kind}]", "manifold = T4", "tori = Tz Tx Ty", "sum = Tw", f"n = {n}"]
    lines += ["", "[task enumerate]", "recipe = wide", ""]
    return Job(
        name=name,
        argv=["run", "--config", f"{name}.cfg", "--output", "machine"],
        files={f"{name}.cfg": "\n".join(lines)},
        check="wide",
        expect={"coefficients": coeffs, "n": n},
    )


# -- linking -----------------------------------------------------------------


def refine(polygon, vertices: int, rng: random.Random) -> list[tuple[Fraction, ...]]:
    """Subdivide each edge evenly to `vertices` in total, then move every
    vertex by a seeded offset of at most 1/64 per coordinate."""
    per_edge = vertices // len(polygon)
    if per_edge * len(polygon) != vertices:
        raise ValueError(f"{vertices} vertices do not split over {len(polygon)} edges")
    out = []
    for i, start in enumerate(polygon):
        end = polygon[(i + 1) % len(polygon)]
        for step in range(per_edge):
            t = Fraction(step, per_edge)
            out.append(
                tuple(
                    Fraction(s) + t * (e - s)
                    + Fraction(rng.randint(-PERTURB_MAX, PERTURB_MAX), PERTURB_DENOMINATOR)
                    for s, e in zip(start, end)
                )
            )
    return out


def link_text(components) -> str:
    blocks = ["\n".join(" ".join(str(c) for c in v) for v in comp) for comp in components]
    return "\n\n".join(blocks) + "\n"


def _borromean_job(rng: random.Random, index: int, vertices: int) -> Job:
    name = f"c{index}-borromean{vertices}"
    link = [refine(comp, vertices, rng) for comp in BORROMEAN]
    axis = [refine(BORROMEAN_AXIS, vertices, rng)]
    return Job(
        name=name,
        argv=["linking", "--link", f"{name}.lnk", "--axis", f"{name}-axis.lnk", "--output", "machine"],
        files={f"{name}.lnk": link_text(link), f"{name}-axis.lnk": link_text(axis)},
        check="linking",
        expect={"matrix": [[0, 0, 0], [0, 0, 0], [0, 0, 0]], "axis": [1, 1, 1], "relation": [1, 1, 1]},
    )


def _hopf_job(rng: random.Random, index: int, vertices: int) -> Job:
    name = f"c{index}-hopf{vertices}"
    link = [refine(comp, vertices, rng) for comp in HOPF]
    return Job(
        name=name,
        argv=["linking", "--link", f"{name}.lnk", "--output", "machine"],
        files={f"{name}.lnk": link_text(link)},
        check="linking",
        expect={"matrix": [[0, 1], [1, 0]], "axis": None, "relation": None},
    )
