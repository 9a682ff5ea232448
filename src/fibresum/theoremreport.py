"""The theorem tasks' report sections: the hypothesis gate, recipes,
enumerations with their forms and form checks, and the sign solver.

`TheoremReportBuilder` adds them to `reports.ReportBuilder`. The command
line loads this module only for a run with a theorem task, so a linking
job compiles none of it. Each enumeration's forms are kept as records,
not as text: a form's table row or machine document is rendered once,
when the report is rendered, and only in the chosen format.

Loading this module loads none of the layers that compute: the records
are type names only, and the sections that need a layer's function
import it when they run.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Optional, Sequence

from .reports import ItemList, ReportBuilder, _s

if TYPE_CHECKING:
    from .construct import EnumerationResult, HypothesisReport, SolveResult
    from .fourman import FourManifold
    from .gompfsum import CheckReport, FormClass, SumRecipe
    from .intlat import IntVector

# The per-form writers stay out of `__all__`: they are kernels of the
# renderers, called once per form, not entry points.
__all__ = ["TheoremReportBuilder", "manifold_doc"]


def vector_doc(v: IntVector) -> list[str]:
    return list(map(str, v.coords))


def manifold_doc(m: FourManifold) -> dict:
    from .fourman import form_parity

    return {
        "name": m.name,
        "euler": _s(m.euler),
        "signature": _s(m.signature),
        "b1": _s(m.b1),
        "b2": _s(m.b2),
        "simply_connected": m.simply_connected,
        "basis": list(m.lattice_basis_labels),
        "pairing": [
            ["?" if e is None else _s(e) for e in row] for row in m.pairing.entries
        ],
        "c1": vector_doc(m.c1),
        "form_parity": form_parity(m),
    }


def _profile_text(layout: Sequence[tuple[str, int]], profile: Sequence[int]) -> str:
    """Each gluing's label with its plus and minus counts, e.g.
    ``Tx +1 Ty -1 Tz +3-2``, from its (label, copies) in `layout` and its
    plus count in `profile`."""
    words = []
    for (label, copies), plus in zip(layout, profile):
        minus = copies - plus
        words.append(f"{label} " + (f"+{plus}" if plus else "") + (f"-{minus}" if minus else ""))
    return " ".join(words)


def _table_rows(forms: Sequence[FormClass]) -> list[str]:
    """The table's header and one row per form: profile, c1, divisibility."""
    profiles = [_profile_text(f.layout, f.profile) for f in forms]
    profile_width = max([7] + [len(text) for text in profiles])
    c1_texts = ["(" + ", ".join(map(str, f.c1.coords)) + ")" for f in forms]
    c1_width = max([2] + [len(text) for text in c1_texts])
    rows = [f"  {'profile':<{profile_width}} {'c1':<{c1_width}} divisibility"]
    for f, profile, c1_text in zip(forms, profiles, c1_texts):
        d = f.divisibility
        div_text = (
            "undefined"
            if d.undefined
            else (f"{d.lower}" if d.exact else f"{d.lower}..{d.upper or 'unconstrained'}")
        )
        rows.append(f"  {profile:<{profile_width}} {c1_text:<{c1_width}} {div_text}")
    return rows


def _list(texts: list[str], newline: str) -> str:
    """``_write`` of a list whose items' JSON texts are ``texts``."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(texts) + newline + "]" if texts else "[]"


class FormList(ItemList):
    """Forms in a machine document. Each form's document holds its c1,
    divisibility (exact, lower, undefined, upper) and signs under fixed
    keys in sorted order."""

    __slots__ = ()

    @staticmethod
    def item_writer():
        """A form writer for one rendering of a list. A form's signs are
        joined from one text per gluing, its plus signs then its minus
        signs, each kept by (copies, plus count) for the list's other
        forms, which share its indent."""
        blocks: dict[tuple[int, int], str] = {}

        def write_form(form: FormClass, newline: str, out: list[str]) -> None:
            inner = newline + "  "
            deep = inner + "  "
            signs = []
            for (_, copies), plus in zip(form.layout, form.profile):
                if (copies, plus) not in blocks:
                    blocks[copies, plus] = ("," + deep).join(['"1"'] * plus + ['"-1"'] * (copies - plus))
                signs.append(blocks[copies, plus])
            c1 = [f'"{c}"' for c in form.c1.coords]
            d = form.divisibility
            out.append(
                f'{{{inner}"c1": {_list(c1, inner)},'
                f'{inner}"divisibility": {{'
                f'{deep}"exact": {"true" if d.exact else "false"},'
                f'{deep}"lower": "{d.lower:d}",'
                f'{deep}"undefined": {"true" if d.undefined else "false"},'
                f'{deep}"upper": "{d.upper:d}"'
                f'{inner}}},'
                f'{inner}"signs": {_list(signs, inner)}'
                f"{newline}}}"
            )

        return write_form


class TheoremReportBuilder(ReportBuilder):
    """A report builder with the theorem tasks' sections, and the
    manifold, forms and divisibilities they fill in."""

    def __init__(self, seed: int, cap: int) -> None:
        super().__init__(seed, cap)
        self.manifold: Optional[dict] = None
        self.forms: list[FormClass] = []
        self.divisibilities: list[str] = []
        self.pi0_lower_bound: Optional[str] = None
        # Index in `forms` of the last enumeration's first form.
        self._first_form = 0

    def add_form_checks(self, name: str, forms: Sequence[FormClass], reports: Sequence[CheckReport]) -> None:
        """Check entries for one check report per form of the last
        enumeration, grouped by message.

        Each passed or skipped message is one entry whose detail counts the
        forms reporting it; each failure keeps its own entry, named by the
        form's index in `forms` and its profile. Forms share few distinct
        outcomes, so the messages are walked once per outcome.
        """
        groups: dict[str, list] = {}
        outcomes = Counter((report.passed, report.skipped) for report in reports)
        for (passed, skipped), count in outcomes.items():
            for status, messages in (("pass", passed), ("skipped", skipped)):
                for msg in dict.fromkeys(messages):
                    groups.setdefault(msg, [status, 0])[1] += count
        failures = []
        for index, (form, report) in enumerate(zip(forms, reports), self._first_form):
            for msg in report.failed:
                label = f"{name} form {index} profile {_profile_text(form.layout, form.profile)}"
                failures.append({"check": f"{label}: {msg}", "status": "fail"})
                self.line(f"  [   fail] {label}: {msg}")
        self.checks += [
            {"check": f"{name}: {msg}", "status": status, "detail": f"{count} of {len(reports)} forms"}
            for msg, (status, count) in groups.items()
        ] + failures

    def add_hypothesis_report(self, task_name: str, report: HypothesisReport) -> None:
        self.heading(f"hypothesis report ({task_name})")
        doc = {
            "task": "verify",
            "name": task_name,
            "condition1": {"pass": report.condition1, "rank": _s(report.rank),
                           "reasons": list(report.condition1_reasons)},
            "condition2": {"pass": report.condition2, "reasons": list(report.condition2_reasons)},
            "condition3": {
                "pass": report.condition3,
                "n": _s(report.n),
                "d": None if report.torus_divisibility is None else _s(report.torus_divisibility),
                "n_divides_2d": report.n_divides_2d,
                "reasons": list(report.condition3_reasons),
            },
            "overall": report.overall,
        }
        self.tasks.append(doc)
        d_text = "?" if report.torus_divisibility is None else str(report.torus_divisibility)
        conditions = (
            (f"rank {report.rank}", report.condition1, report.condition1_reasons),
            ("orientation freedom", report.condition2, report.condition2_reasons),
            (f"n = {report.n}, d = {d_text}", report.condition3, report.condition3_reasons),
        )
        for number, (what, holds, reasons) in enumerate(conditions, 1):
            self.add_check(
                f"{task_name}: condition {number} ({what})", "pass" if holds else "fail", "; ".join(reasons)
            )
        self.add_check(f"{task_name}: overall", "pass" if report.overall else "fail")

    def add_recipe(self, recipe: SumRecipe, manifold: FourManifold, config_section: str) -> None:
        """The recipe's gluings, its summed record, its per-gluing c1 trace,
        and `config_section`, the recipe as a loadable config section."""
        from .gompfsum import c1_contributions

        self.heading(f"recipe {recipe.name}")
        gluing_docs = []
        for gluing in recipe.gluings:
            gluing_docs.append(
                {
                    "torus": gluing.torus_label,
                    "copies": _s(gluing.copies),
                    "signs": ["1"] * gluing.plus + ["-1"] * (gluing.copies - gluing.plus),
                }
            )
            self.line("  glue " + _profile_text(((gluing.torus_label, gluing.copies),), (gluing.plus,)))
        self.line(f"  total copies: {recipe.total_copies}")
        trace = [
            {
                "torus": c["torus"],
                "sign_sum": _s(c["sign_sum"]),
                "fibre_term": vector_doc(c["fibre_term"]),
                "normal_term": vector_doc(c["normal_term"]),
                "net": vector_doc(c["net"]),
            }
            for c in c1_contributions(recipe)
        ]
        self.tasks.append(
            {
                "task": "build",
                "name": recipe.name,
                "gluings": gluing_docs,
                "total_copies": _s(recipe.total_copies),
                "manifold": manifold_doc(manifold),
                "c1_trace": trace,
                "config_section": config_section,
            }
        )
        self.set_manifold(manifold)
        self.line("  config section:")
        for line in config_section.rstrip().splitlines():
            self.line(f"    {line}")

    def set_manifold(self, manifold: FourManifold) -> None:
        self.manifold = manifold_doc(manifold)
        self.line(
            f"  manifold {manifold.name}: e = {manifold.euler}, "
            f"sigma = {manifold.signature}, b2 = {manifold.b2}, "
            f"simply connected: {manifold.simply_connected}, "
            f"parity: {self.manifold['form_parity']}"
        )

    def add_enumeration(self, name: str, result: EnumerationResult) -> None:
        self.heading(f"enumeration {name}")
        self.set_manifold(result.manifold)
        self.line(f"  flippable copies: {result.flippable_copies}")
        forms = result.forms
        self.table_lines.append(lambda: _table_rows(forms))
        # The tallies walk every form on each read, so each is read once.
        divs = [_s(d) for d in result.distinct_divisibilities]
        pi0 = result.pi0_lower_bound
        inexact_count = result.inexact_count
        inconclusive = result.divisibility_inconclusive
        self.line(f"  distinct exact divisibilities: {{{', '.join(divs)}}}")
        self.line(f"  pi0 lower bound: {pi0}")
        if inexact_count:
            self.line(f"  inexact divisibility reports: {inexact_count} (excluded)")
        if inconclusive:
            self.line("  note: divisibility inconclusive (distinct c1 vectors share a value)")
        # Each form is written once, in `forms`; the task names its slice.
        self._first_form = len(self.forms)
        self.forms += forms
        self.divisibilities = divs
        self.pi0_lower_bound = _s(pi0)
        self.tasks.append(
            {
                "task": "enumerate",
                "name": name,
                "form_range": [_s(self._first_form), _s(len(self.forms))],
                "divisibilities": divs,
                "pi0_lower_bound": self.pi0_lower_bound,
                "inexact_count": _s(inexact_count),
                "divisibility_inconclusive": inconclusive,
                "flippable_copies": _s(result.flippable_copies),
            }
        )

    def add_solve(self, result: SolveResult) -> None:
        """The solve section; `add_witnesses` completes it once the
        recipe is enumerated."""
        self.heading(f"sign solver (n = {result.n})")
        self.line(
            f"  recipe {result.recipe.name}: {result.recipe.total_copies} copies, "
            f"{result.lagrangian_copies} parallel Lagrangian copies"
        )
        self.tasks.append(
            {
                "task": "solve",
                "name": result.recipe.name,
                "n": _s(result.n),
                "lagrangian_copies": _s(result.lagrangian_copies),
                "assignments": {},
                "realization": "parallel Lagrangian copies of Tz",
            }
        )

    def add_witnesses(self, witnesses: dict[int, FormClass]) -> None:
        """Each prime's witness form, into the last task's solve section,
        and its realized check."""
        assignments = self.tasks[-1]["assignments"]
        for p, form in sorted(witnesses.items()):
            assignments[_s(p)] = {"signs": [_s(s) for s in form.signs_flat]}
            self.line(f"  prime {p}: profile {_profile_text(form.layout, form.profile)}")
        for p in sorted(witnesses):
            self.add_check(f"solve: prime {p} realized with exact divisibility {p}", "pass")

    def machine_document(self) -> dict:
        """The report's document; `forms` holds the form records, which
        the writer renders."""
        doc = super().machine_document()
        doc["manifold"] = self.manifold
        doc["forms"] = FormList(self.forms)
        doc["divisibilities"] = self.divisibilities
        doc["pi0_lower_bound"] = self.pi0_lower_bound
        return doc
