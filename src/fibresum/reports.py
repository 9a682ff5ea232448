"""Report assembly: human-readable tables and the machine document.

The machine document is a single JSON object with stable field names and
every integer rendered as an exact decimal string, so reports can be
diffed byte-for-byte in CI. Nothing time- or environment-dependent goes
in. It is written by a small indent-2 writer whose bytes equal
``json.dumps(doc, indent=2, sort_keys=True)``; unlike ``json.dumps`` with
an indent, it escapes every string with the C encoder. The table prints
every task's section in aligned text, but the machine document's
top-level `manifold` is only the last build's or enumeration's, so an
earlier summed record is in the table alone (ROADMAP item 7).

`ReportBuilder` holds what every task reports: lines, checks, task
documents, errors and the linking section. The theorem tasks' sections,
the per-form writers among them, live in `theoremreport`, which the
command line loads only for a run with a theorem task, so a linking job
compiles none of them.
"""

from __future__ import annotations

from typing import Callable, Optional

# The C string encoder that `json.encoder` re-exports, taken from its own
# module: importing `json.encoder` loads the whole `json` package, its
# decoder and scanner included, which no report needs.
try:
    from _json import encode_basestring_ascii as _encode
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _encode

__all__ = ["ReportBuilder"]


def _s(x: int) -> str:
    return str(int(x))


class ItemList(tuple):
    """A list in a machine document whose items are written, as `_write`
    would, by the ``write_item(item, newline, out)`` that the class's
    ``item_writer()`` returns for each rendering of the list."""

    __slots__ = ()


def _render_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte."""
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append the indent-2 JSON text of ``value`` to ``out``; ``newline``
    is a line break plus the indent of the line ``value`` starts on.

    Only what reports hold is accepted: str, int, bool, None, lists and
    tuples, dicts with str keys (written in sorted key order), and an
    `ItemList`, whose items its class writes. Anything else, a non-str
    key included, raises TypeError.
    """
    if isinstance(value, str):
        out.append(_encode(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if all(isinstance(item, str) for item in value):
            out.append("[" + inner + ("," + inner).join(map(_encode, value)) + newline + "]")
            return
        write_item = value.item_writer() if isinstance(value, ItemList) else _write
        separator = "[" + inner
        for item in value:
            out.append(separator)
            write_item(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            out.append(separator + _encode(key) + ": ")
            _write(value[key], inner, out)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class ReportBuilder:
    """Accumulates task results and renders both output formats."""

    def __init__(self, seed: int, cap: int) -> None:
        self.seed = seed
        self.cap = cap
        self.checks: list[dict] = []
        self.tasks: list[dict] = []
        # A line of text, or a function returning lines, which
        # `render_table` calls at that place.
        self.table_lines: list[str | Callable[[], list[str]]] = []
        self.errors: list[str] = []

    # -- table helpers ----------------------------------------------------

    def line(self, text: str = "") -> None:
        self.table_lines.append(text)

    def heading(self, text: str) -> None:
        if self.table_lines:
            self.line()
        self.line(text)
        self.line("-" * len(text))

    def note_error(self, message: str) -> None:
        self.errors.append(message)
        self.line(f"error: {message}")

    # -- task results ------------------------------------------------------

    def add_check(self, name: str, status: str, detail: str = "") -> None:
        entry = {"check": name, "status": status}
        if detail:
            entry["detail"] = detail
        self.checks.append(entry)
        self.line(f"  [{status:>7}] {name}" + (f" ({detail})" if detail else ""))

    def add_linking(
        self,
        name: str,
        matrix: list[list[int]],
        axis_coords: Optional[list[int]],
        relation: Optional[list[int]],
    ) -> None:
        self.heading(f"linking report ({name})")
        doc: dict = {
            "task": "linking",
            "name": name,
            "pairwise_linking": [[_s(v) for v in row] for row in matrix],
        }
        for i, row in enumerate(matrix):
            self.line(f"  component {i}: " + " ".join(f"{v:>3}" for v in row))
        if axis_coords is not None:
            doc["axis_linking"] = [_s(v) for v in axis_coords]
            self.line(f"  axis linking: ({', '.join(str(v) for v in axis_coords)})")
        if relation is not None:
            doc["relation"] = [_s(v) for v in relation]
            self.line(f"  torus relation: ({', '.join(str(v) for v in relation)})")
        self.tasks.append(doc)

    # -- final documents ---------------------------------------------------

    def machine_document(self) -> dict:
        """The report's document. The manifold, forms and divisibility
        fields stay empty unless a theorem task fills them."""
        return {
            "schema": "fibresum-report/5",
            "seed": _s(self.seed),
            "cap": _s(self.cap),
            "manifold": None,
            "forms": [],
            "divisibilities": [],
            "pi0_lower_bound": None,
            "checks": self.checks,
            "tasks": self.tasks,
            "errors": self.errors,
        }

    def render_machine(self) -> str:
        return _render_json(self.machine_document())

    def render_table(self) -> str:
        lines: list[str] = []
        for item in self.table_lines:
            if isinstance(item, str):
                lines.append(item)
            else:
                lines += item()
        return "\n".join(lines)
