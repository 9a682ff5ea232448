"""Output oracles for benchmark jobs, written without fibresum.

Each oracle recomputes the expected answer from the job's generating
parameters with plain integer arithmetic and compares it with the
machine report. Only the report sections the package README documents
are read (`forms`, `divisibilities`, `pi0_lower_bound`, `checks`,
`tasks`); the schema tag, report bytes and enumeration counters are
left alone because planned changes to the enumerator may alter them
without changing the mathematics.

Chern class bookkeeping (see the package README): every glued copy adds
-e*[T] to c1, e the copy's sign. On T4 with Tw = Tx + Ty + Tz and all
Tw copies positive, gluing Tx once, Ty a times with sign sum s_y, Tz b
times with sign sum s_z and Tw m times gives
c1 = -(1 + m, s_y + m, s_z + m, 0, 0, 0).
"""

from __future__ import annotations

import itertools
import json
import math


def collapse_c1(s_x: int, s_y: int, s_z: int, m: int) -> tuple[int, ...]:
    return (-(s_x + m), -(s_y + m), -(s_z + m), 0, 0, 0)


def collapse_expected(a: int, b: int, m: int) -> dict[tuple[int, ...], int]:
    """c1 -> exact divisibility over every sign choice on a Ty and b Tz copies."""
    out = {}
    for s_y in range(-a, a + 1, 2):
        for s_z in range(-b, b + 1, 2):
            c1 = collapse_c1(1, s_y, s_z, m)
            out[c1] = math.gcd(*c1)
    return out


def solve_shape(primes: list[int]) -> tuple[int, int]:
    """(Tz copies k, n) of the sign solver's recipe: n is the product of the
    primes, and k the largest |s| over the first odd sign sums s, scanned
    upward from -(n - 2), with gcd(n, n - 1 + s) equal to each prime."""
    n = math.prod(primes)
    sums = [next(s for s in range(-(n - 2), n - 1, 2) if math.gcd(n, n - 1 + s) == p) for p in primes]
    return max(abs(s) for s in sums), n


def wide_c1(coefficients: list[int], signs) -> tuple[int, ...]:
    return tuple(c - e for c, e in zip(coefficients, signs)) + (0,) * len(coefficients)


def wide_expected(coefficients: list[int]) -> dict[tuple[int, ...], int]:
    out = {}
    for signs in itertools.product((1, -1), repeat=len(coefficients)):
        c1 = wide_c1(coefficients, signs)
        out[c1] = math.gcd(*c1)
    return out


def wide_divisibilities(coefficients: list[int]) -> list[int]:
    return sorted(set(wide_expected(coefficients).values()) - {0})


# -- report checks -------------------------------------------------------------


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _check_forms(doc: dict, expected: dict[tuple[int, ...], int], c1_of_signs, problems: list[str]) -> None:
    forms = doc["forms"]
    if len(forms) != len(expected):
        problems.append(f"{len(forms)} forms, expected {len(expected)}")
    seen = set()
    for form in forms:
        c1 = tuple(_ints(form["c1"]))
        seen.add(c1)
        if c1 not in expected:
            problems.append(f"unexpected c1 {c1}")
            continue
        if c1_of_signs(_ints(form["signs"])) != c1:
            problems.append(f"signs {form['signs']} do not give c1 {c1}")
        div = form["divisibility"]
        if not div["exact"] or int(div["lower"]) != expected[c1]:
            problems.append(f"c1 {c1}: divisibility {div}, expected exactly {expected[c1]}")
    if seen != set(expected):
        problems.append(f"{len(set(expected) - seen)} expected c1 classes missing")
    divisibilities = sorted(set(expected.values()) - {0})
    if _ints(doc["divisibilities"]) != divisibilities:
        problems.append(f"divisibilities {doc['divisibilities']}, expected {divisibilities}")
    if int(doc["pi0_lower_bound"]) != len(divisibilities):
        problems.append(f"pi0 lower bound {doc['pi0_lower_bound']}, expected {len(divisibilities)}")


def _check_statuses(doc: dict, problems: list[str]) -> None:
    if not doc["checks"]:
        problems.append("report has no checks")
    failed = [c["check"] for c in doc["checks"] if c["status"] not in ("pass", "skipped")]
    if failed:
        problems.append(f"{len(failed)} checks not passed, first: {failed[0]}")


def _tasks(doc: dict, kind: str) -> list[dict]:
    return [t for t in doc["tasks"] if t["task"] == kind]


def _collapse(doc: dict, expect: dict, problems: list[str]) -> None:
    a, b, m = expect["a"], expect["b"], expect["m"]

    def c1_of_signs(signs):
        return collapse_c1(signs[0], sum(signs[1 : 1 + a]), sum(signs[1 + a : 1 + a + b]), m)

    _check_forms(doc, collapse_expected(a, b, m), c1_of_signs, problems)
    if len(_tasks(doc, "enumerate")) != 1:
        problems.append("expected one enumerate task")


def _solve(doc: dict, expect: dict, problems: list[str]) -> None:
    primes = expect["primes"]
    k, n = solve_shape(primes)
    m = n - 1

    def c1_of_signs(signs):
        # Solver recipe order: Tx, Ty, k copies of Tz, n - 1 copies of Tw.
        return collapse_c1(signs[0], signs[1], sum(signs[2 : 2 + k]), m)

    _check_forms(doc, collapse_expected(1, k, m), c1_of_signs, problems)
    solve = _tasks(doc, "solve")
    if len(solve) != 1:
        problems.append("expected one solve task")
        return
    assignments = solve[0]["assignments"]
    if sorted(int(p) for p in assignments) != sorted(primes):
        problems.append(f"assignments for {sorted(assignments)}, expected {primes}")
        return
    for p, entry in assignments.items():
        div = math.gcd(*c1_of_signs(_ints(entry["signs"])))
        if div != int(p):
            problems.append(f"prime {p}: assignment has divisibility {div}")


def _wide(doc: dict, expect: dict, problems: list[str]) -> None:
    coeffs, n = expect["coefficients"], expect["n"]
    _check_forms(doc, wide_expected(coeffs), lambda signs: wide_c1(coeffs, signs), problems)
    verify = _tasks(doc, "verify")
    if len(verify) != 1 or verify[0]["overall"] is not True:
        problems.append("T4 hypothesis gate did not pass")
    build = _tasks(doc, "build")
    if len(build) != 1:
        problems.append("expected one build task")
    else:
        # One positive copy along each of Tz, Tx, Ty and n - 1 along Tw.
        if int(build[0]["total_copies"]) != n + 2:
            problems.append(f"build glued {build[0]['total_copies']} copies, expected {n + 2}")
        if _ints(build[0]["manifold"]["c1"]) != [-n, -n, -n, 0, 0, 0]:
            problems.append(f"build c1 {build[0]['manifold']['c1']}, expected -{n}(1,1,1,0,0,0)")
    if len(_tasks(doc, "enumerate")) != 1:
        problems.append("expected one enumerate task")


def _linking(doc: dict, expect: dict, problems: list[str]) -> None:
    tasks = _tasks(doc, "linking")
    if len(tasks) != 1:
        problems.append("expected one linking task")
        return
    task = tasks[0]
    matrix = [_ints(row) for row in task["pairwise_linking"]]
    if matrix != expect["matrix"]:
        problems.append(f"pairwise linking {matrix}, expected {expect['matrix']}")
    for key, field in (("axis", "axis_linking"), ("relation", "relation")):
        got = _ints(task[field]) if field in task else None
        if got != expect[key]:
            problems.append(f"{field} {got}, expected {expect[key]}")


_CHECKS = {"collapse": _collapse, "solve": _solve, "wide": _wide, "linking": _linking}


def check(kind: str, expect: dict, exit_code: int, stdout: str) -> list[str]:
    """Problems with one job's result; an empty list means it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems: list[str] = []
    try:
        _CHECKS[kind](doc, expect, problems)
        _check_statuses(doc, problems)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"report misses a documented field: {exc!r}")
    return problems
