"""The hand-writable workspace text format.

Blocks, one per structure, separated by ``end``::

    group z2
    elements e a
    table
    e a
    a e
    end

    fuzzy mu1 on z2
    values e=1 a=1/2
    end

    morphism m1 from mu1 to mu2
    map e=e a=a
    lambda 1/2=1/4 1=1
    end

Rationals are written ``p/q`` or as a bare integer.  Lines starting with
``#`` and blank lines are ignored.  Every referenced object is validated on
load; validation errors are re-raised with the block name prepended.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    UnknownReference,
    ValidationError,
    WorkspaceSyntaxError,
)
from .fuzzy import FuzzyMorphism, FuzzySubgroup, validate_fuzzy, validate_fuzzy_morphism
from .groups import FiniteGroup, validate_group

_RATIONAL = re.compile(r"^(\d+)(?:/([1-9]\d*))?$")
_TOKEN = re.compile(r"\S+")


@dataclass
class WorkspaceFile:
    """Parsed and validated workspace: named groups, fuzzy subgroups, morphisms."""

    groups: dict[str, FiniteGroup] = field(default_factory=dict)
    fuzzies: dict[str, FuzzySubgroup] = field(default_factory=dict)
    fuzzy_group: dict[str, str] = field(default_factory=dict)
    morphisms: dict[str, FuzzyMorphism] = field(default_factory=dict)
    morphism_ends: dict[str, tuple[str, str]] = field(default_factory=dict)


def _tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]


def _parse_rational(text: str, lineno: int, col: int) -> Fraction:
    m = _RATIONAL.match(text)
    if not m:
        raise WorkspaceSyntaxError(lineno, col, f"expected a rational p/q, got {text!r}")
    try:
        return Fraction(int(m.group(1)), int(m.group(2) or 1))
    except ValueError as exc:  # more digits than int() converts
        raise WorkspaceSyntaxError(lineno, col, "rational has too many digits") from exc


def _parse_assignments(tokens, lineno):
    out = []
    for text, col in tokens:
        if "=" not in text:
            raise WorkspaceSyntaxError(lineno, col, f"expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        if not key or not value:
            raise WorkspaceSyntaxError(lineno, col, f"expected key=value, got {text!r}")
        out.append((key, value, col))
    return out


def _wrap_validation(name: str, exc: ValidationError) -> ValidationError:
    wrapped = type(exc)(f"{name}: {exc}", witness=exc.witness)
    return wrapped


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0
        self.ws = WorkspaceFile()

    def error(self, col: int, message: str):
        raise WorkspaceSyntaxError(self.pos, col, message)

    def next_line(self):
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                return _tokens(line)
        return None

    def parse(self) -> WorkspaceFile:
        while True:
            tokens = self.next_line()
            if tokens is None:
                return self.ws
            head, col = tokens[0]
            if head == "group":
                self.parse_group(tokens)
            elif head == "fuzzy":
                self.parse_fuzzy(tokens)
            elif head == "morphism":
                self.parse_morphism(tokens)
            else:
                self.error(col, f"expected group, fuzzy or morphism, got {head!r}")

    def block_name(self, tokens, kind, known):
        if len(tokens) < 2:
            self.error(tokens[0][1], f"{kind} needs a name")
        name, col = tokens[1]
        if name in known:
            self.error(col, f"duplicate {kind} name {name!r}")
        return name

    def parse_group(self, tokens):
        name = self.block_name(tokens, "group", self.ws.groups)
        tokens = self.next_line()
        if tokens is None or tokens[0][0] != "elements":
            self.error(1, "group block needs an elements line")
        labels = [t for t, _ in tokens[1:]]
        if not labels:
            self.error(tokens[0][1], "elements line must list at least one label")
        for text, col in tokens[1:]:
            if text == "end" or text.startswith("#"):
                kind = "end" if text == "end" else "a comment"
                self.error(col, f"element label {text!r} would start a table row read as {kind}")
            if "=" in text:
                self.error(
                    col, f"element label {text!r} contains '=', so no assignment can name it"
                )
        if len(set(labels)) != len(labels):
            self.error(tokens[0][1], "element labels must be distinct")
        index = {lbl: i for i, lbl in enumerate(labels)}
        tokens = self.next_line()
        if tokens is None or tokens[0][0] != "table":
            self.error(1, "group block needs a table line")
        table = []
        for _ in labels:
            row_tokens = self.next_line()
            if row_tokens is None or row_tokens[0][0] == "end":
                self.error(1, f"table needs {len(labels)} rows of {len(labels)} labels")
            row = []
            for text, col in row_tokens:
                if text not in index:
                    self.error(col, f"unknown element label {text!r}")
                row.append(index[text])
            if len(row) != len(labels):
                self.error(row_tokens[0][1], f"table row needs {len(labels)} entries")
            table.append(row)
        self.expect_end()
        try:
            self.ws.groups[name] = validate_group(labels, table)
        except ValidationError as exc:
            raise _wrap_validation(f"group {name}", exc) from exc

    def parse_fuzzy(self, tokens):
        name = self.block_name(tokens, "fuzzy", self.ws.fuzzies)
        if len(tokens) != 4 or tokens[2][0] != "on":
            self.error(tokens[0][1], "expected: fuzzy <name> on <group>")
        gname, _ = tokens[3]
        if gname not in self.ws.groups:
            raise UnknownReference(gname, f"fuzzy {name} refers to unknown group {gname!r}")
        group = self.ws.groups[gname]
        values: dict[int, Fraction] = {}
        while True:
            tokens = self.next_line()
            if tokens is None:
                self.error(1, f"fuzzy {name} not closed with end")
            if tokens[0][0] == "end":
                break
            if tokens[0][0] != "values":
                self.error(tokens[0][1], "expected a values line or end")
            for key, value, col in _parse_assignments(tokens[1:], self.pos):
                if key not in group.names:
                    self.error(col, f"unknown element label {key!r}")
                x = group.index(key)
                if x in values:
                    self.error(col, f"value for {key!r} given twice")
                values[x] = _parse_rational(value, self.pos, col)
        missing = [group.names[x] for x in range(group.n) if x not in values]
        if missing:
            self.error(1, f"fuzzy {name} misses values for {' '.join(missing)}")
        mu = [values[x] for x in range(group.n)]
        try:
            self.ws.fuzzies[name] = validate_fuzzy(group, mu)
        except ValidationError as exc:
            raise _wrap_validation(f"fuzzy {name}", exc) from exc
        self.ws.fuzzy_group[name] = gname

    def parse_morphism(self, tokens):
        name = self.block_name(tokens, "morphism", self.ws.morphisms)
        if len(tokens) != 6 or tokens[2][0] != "from" or tokens[4][0] != "to":
            self.error(tokens[0][1], "expected: morphism <name> from <fuzzy> to <fuzzy>")
        src_name, tgt_name = tokens[3][0], tokens[5][0]
        for ref in (src_name, tgt_name):
            if ref not in self.ws.fuzzies:
                raise UnknownReference(ref, f"morphism {name} refers to unknown fuzzy {ref!r}")
        source = self.ws.fuzzies[src_name]
        target = self.ws.fuzzies[tgt_name]
        fmap: dict[int, int] = {}
        lmap: dict[int, int] = {}
        while True:
            tokens = self.next_line()
            if tokens is None:
                self.error(1, f"morphism {name} not closed with end")
            head, hcol = tokens[0]
            if head == "end":
                break
            if head == "map":
                for key, value, col in _parse_assignments(tokens[1:], self.pos):
                    if key not in source.group.names:
                        self.error(col, f"unknown source element {key!r}")
                    if value not in target.group.names:
                        self.error(col, f"unknown target element {value!r}")
                    x = source.group.index(key)
                    if x in fmap:
                        self.error(col, f"image of {key!r} given twice")
                    fmap[x] = target.group.index(value)
            elif head == "lambda":
                for key, value, col in _parse_assignments(tokens[1:], self.pos):
                    u = _parse_rational(key, self.pos, col)
                    v = _parse_rational(value, self.pos, col)
                    if u not in source.chain:
                        self.error(col, f"value {key} is not in the chain of {src_name}")
                    if v not in target.chain:
                        self.error(col, f"value {value} is not in the chain of {tgt_name}")
                    i = source.chain.index(u)
                    if i in lmap:
                        self.error(col, f"image of {key} given twice")
                    lmap[i] = target.chain.index(v)
            else:
                self.error(hcol, "expected a map, lambda or end line")
        if len(fmap) != source.n:
            self.error(1, f"morphism {name} must map every element of {src_name}")
        if len(lmap) != len(source.chain):
            self.error(1, f"morphism {name} must map every chain value of {src_name}")
        f = [fmap[x] for x in range(source.n)]
        lam = [lmap[i] for i in range(len(source.chain))]
        try:
            self.ws.morphisms[name] = validate_fuzzy_morphism(source, target, f, lam)
        except ValidationError as exc:
            raise _wrap_validation(f"morphism {name}", exc) from exc
        self.ws.morphism_ends[name] = (src_name, tgt_name)

    def expect_end(self):
        tokens = self.next_line()
        if tokens is None or tokens[0][0] != "end":
            self.error(1, "expected end")


def parse_workspace(text: str) -> WorkspaceFile:
    """Parse and validate a workspace document."""
    return _Parser(text).parse()
