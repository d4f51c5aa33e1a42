"""Command-line verification tool over workspace files.

Commands: check, cover, levels, embed, enumerate.  All reports are
deterministic (byte-identical across runs for the same inputs and flags);
results go to stdout, diagnostics to stderr.  Exit codes: 0 all checks pass,
1 parse error, 2 validation error, 3 budget exceeded, 4 check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cover import build_cover, cover_report, hclass_level_isomorphism
from .embedding import verify_embedding
from .enumeration import (
    default_grid,
    enumerate_fuzzy_subgroups_chain,
    enumerate_fuzzy_subgroups_filter,
)
from .errors import (
    DEFAULT_BUDGET,
    AlgebraError,
    BudgetExceeded,
    UnknownReference,
    ValidationError,
    WorkspaceSyntaxError,
)
from .fuzzy import derived_facts, level_subset
from .monoids import _members, green_relations
from .workspace import WorkspaceFile, parse_workspace

SCHEMA_VERSION = 1
_COVER_SECTIONS = ("sigma", "green", "levels", "order", "table")


def _pair_names(cover, indices) -> str:
    return "{" + " ".join(cover.monoid.names[i] for i in sorted(indices)) + "}"


def _element_set(group, indices) -> str:
    return "{" + " ".join(group.names[i] for i in sorted(indices)) + "}"


def _chain_str(chain) -> str:
    return " < ".join(str(v) for v in chain)


def _cmd_check(workspaces, args):
    ws = workspaces[0]
    lines = []
    payload = {"groups": [], "fuzzies": [], "morphisms": []}
    for name, group in ws.groups.items():
        lines.append(f"group {name}: OK (order {group.n})")
        payload["groups"].append({"name": name, "order": group.n})
    for name, fz in ws.fuzzies.items():
        derived = derived_facts(fz)
        if not (derived.unit_dominates and derived.inverse_symmetric):
            raise AlgebraError(f"fuzzy {name}: derived facts fail")
        lines.append(f"fuzzy {name}: OK (axioms, derived facts)")
        payload["fuzzies"].append(
            {
                "name": name,
                "group": ws.fuzzy_group[name],
                "chain": [str(v) for v in fz.chain],
            }
        )
    for name in ws.morphisms:
        src, tgt = ws.morphism_ends[name]
        lines.append(f"morphism {name}: OK ({src} -> {tgt})")
        payload["morphisms"].append({"name": name, "source": src, "target": tgt})
    total = len(ws.groups) + len(ws.fuzzies) + len(ws.morphisms)
    lines.append(f"check: {total} object(s) OK")
    return lines, payload, 0


def _sigma_section(cover, report, lines):
    index = cover.pair_index
    lines.append("sigma classes:")
    names = cover.source.group.names
    for name, cls, mx in zip(names, report.sigma_classes, report.sigma_maxima):
        lines.append(
            f"  over {name}: {_pair_names(cover, map(index.get, cls))} "
            f"max {cover.monoid.names[index[mx]]}"
        )
    quotient = cover.monoid.derived.sigma_quotient
    lines.append(f"sigma quotient: group of order {quotient.n}")


def _green_section(cover, lines):
    for label, part in zip("HRL", green_relations(cover.monoid)):
        classes = " ".join(_pair_names(cover, cls) for cls in part.classes)
        lines.append(f"green {label}: {classes}")


def _levels_section(cover, lines):
    fz = cover.source
    for u in fz.chain:
        subset = level_subset(fz, u)
        mapping = hclass_level_isomorphism(cover, u)
        lines.append(
            f"level {u}: {_element_set(fz.group, subset)} subgroup: yes; "
            f"H-class {_pair_names(cover, mapping)} isomorphic: yes"
        )


def _order_section(cover, lines):
    lines.append("natural order (strict pairs):")
    names = cover.monoid.names
    for i, bits in enumerate(cover.monoid.derived.above):
        lines.extend(f"  {names[i]} <= {names[j]}" for j in _members(bits) if j != i)


def _table_section(cover, lines):
    names = cover.monoid.names
    width = max(len(n) for n in names)
    lines.append("multiplication table:")
    header = " " * width + " | " + " ".join(n.ljust(width) for n in names)
    lines.append(header)
    for i, row in enumerate(cover.monoid.table):
        body = " ".join(names[v].ljust(width) for v in row)
        lines.append(f"{names[i].ljust(width)} | {body}")


def _cmd_cover(workspaces, args):
    ws = workspaces[0]
    sections = args.report
    lines = []
    payload = {"covers": []}
    failed = False
    for name, fz in ws.fuzzies.items():
        cover = build_cover(fz)
        report = cover_report(cover)
        lines.append(
            f"cover of {name}: {cover.n} elements over group "
            f"{ws.fuzzy_group[name]}, chain {_chain_str(fz.chain)}"
        )
        lines.append(f"unit: {cover.monoid.names[cover.monoid.unit]}")
        idem = _pair_names(cover, cover.monoid.derived.idempotents)
        lines.append(f"idempotents: {idem}")
        verdict = "OK" if report.all_match else "FAIL"
        lines.append(f"closed forms (unit, idempotents, order, sigma, maxima): {verdict}")
        if not report.all_match:
            failed = True
        if "sigma" in sections:
            _sigma_section(cover, report, lines)
        if "green" in sections:
            _green_section(cover, lines)
        if "levels" in sections:
            _levels_section(cover, lines)
        if "order" in sections:
            _order_section(cover, lines)
        if "table" in sections:
            _table_section(cover, lines)
        payload["covers"].append(
            {
                "name": name,
                "size": cover.n,
                "unit": cover.monoid.names[cover.monoid.unit],
                "idempotents": [
                    cover.monoid.names[i] for i in cover.monoid.derived.idempotents
                ],
                "closed_forms_ok": report.all_match,
            }
        )
    code = 4 if failed else 0
    lines.append(f"cover: {len(ws.fuzzies)} cover(s), " + ("FAIL" if failed else "all OK"))
    return lines, payload, code


def _cmd_levels(workspaces, args):
    ws = workspaces[0]
    lines = []
    payload = {"levels": []}
    for name, fz in ws.fuzzies.items():
        for u in fz.chain:
            subset = level_subset(fz, u)
            lines.append(
                f"level {u} of {name}: {_element_set(fz.group, subset)} subgroup: yes"
            )
            payload["levels"].append(
                {
                    "fuzzy": name,
                    "value": str(u),
                    "elements": [fz.group.names[i] for i in sorted(subset)],
                }
            )
    lines.append(f"levels: {len(payload['levels'])} level subset(s) OK")
    return lines, payload, 0


def _grid(args):
    """The ``--grid`` levels; refused above the budget before any level is built,
    since the filter tries every level for its first element."""
    if args.grid > args.budget:
        raise BudgetExceeded(args.grid, args.budget, "grid levels")
    return default_grid(args.grid)


def _workspace_objects(ws: WorkspaceFile, args):
    """Fuzzy blocks if present, otherwise an enumeration over each group block."""
    if ws.fuzzies:
        return list(ws.fuzzies.items())
    grid = _grid(args)
    out = []
    for gname, group in ws.groups.items():
        for i, fz in enumerate(enumerate_fuzzy_subgroups_filter(group, grid, args.budget)):
            out.append((f"{gname}#{i}", fz))
    return out


def _cmd_embed(workspaces, args):
    budget = args.budget
    first = _workspace_objects(workspaces[0], args)
    # with one file, both ends are the same workspace: list its objects once
    second = first if len(workspaces) == 1 else _workspace_objects(workspaces[-1], args)
    lines = []
    payload = {"pairs": []}
    cache: dict = {}
    failed = False
    for name1, f1 in first:
        for name2, f2 in second:
            cert = verify_embedding(f1, f2, budget=budget, hom_cache=cache)
            n1 = len(cert.fuzzy_homs)
            n2 = len(cert.cover_homs)
            lines.append(
                f"embed {name1} -> {name2}: hom-sets fuzzy={n1} cover={n2}, "
                f"faithful: {'OK' if cert.faithful else 'FAIL'}, "
                f"full: {'OK' if cert.full else 'FAIL'}, "
                f"functor laws: {'OK' if cert.identity_ok and cert.composition_ok else 'FAIL'}"
            )
            if not cert.ok:
                failed = True
                lines.append(f"  counterexample: {cert.counterexample}")
            entry = {"source": name1, "target": name2}
            entry.update(cert.to_json_dict())
            payload["pairs"].append(entry)
    verdict = "FAIL" if failed else "all OK"
    lines.append(f"embed: {len(payload['pairs'])} pair(s), {verdict}")
    return lines, payload, 4 if failed else 0


def _cmd_enumerate(workspaces, args):
    ws = workspaces[0]
    grid = _grid(args)
    budget = args.budget
    lines = []
    payload = {"grid": [str(v) for v in grid.levels], "groups": []}
    failed = False
    for gname, group in ws.groups.items():
        by_filter = enumerate_fuzzy_subgroups_filter(group, grid, budget)
        by_chain = enumerate_fuzzy_subgroups_chain(group, grid, budget)
        agrees = [fz.mu for fz in by_filter] == [fz.mu for fz in by_chain]
        if not agrees:
            failed = True
        lines.append(
            f"group {gname}: {len(by_filter)} fuzzy subgroup(s) on grid "
            f"{' '.join(str(v) for v in grid.levels)} "
            f"(chain method agrees: {'yes' if agrees else 'NO'})"
        )
        for fz in by_filter:
            assign = " ".join(
                f"{n}={v}" for n, v in zip(group.names, fz.mu)
            )
            lines.append(f"  {assign}")
        payload["groups"].append(
            {
                "name": gname,
                "count": len(by_filter),
                "chain_method_agrees": agrees,
                "assignments": [[str(v) for v in fz.mu] for fz in by_filter],
            }
        )
    lines.append(f"enumerate: {len(ws.groups)} group(s), " + ("FAIL" if failed else "all OK"))
    return lines, payload, 4 if failed else 0


_COMMANDS = {
    "check": _cmd_check,
    "cover": _cmd_cover,
    "levels": _cmd_levels,
    "embed": _cmd_embed,
    "enumerate": _cmd_enumerate,
}


def run_command(command: str, workspaces, args) -> tuple[str, int]:
    """Run one command over parsed workspaces; returns (report text, exit code)."""
    lines, payload, code = _COMMANDS[command](workspaces, args)
    if args.format == "machine":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "status": "ok" if code == 0 else "fail",
            "exit_code": code,
            "report": payload,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n", code
    return "\n".join(lines) + "\n", code


def _report_sections(text: str) -> list[str]:
    sections = [s for s in text.split(",") if s]
    for s in sections:
        if s not in _COVER_SECTIONS:
            raise argparse.ArgumentTypeError(
                f"unknown section {s!r}; choose from {','.join(_COVER_SECTIONS)}"
            )
    return sections


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"budget must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fzcover",
        description="Verify fuzzy subgroups, their F-inverse covers, and the cover embedding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, nfiles=1):
        p = sub.add_parser(name, help=help_text)
        if nfiles == 1:
            p.add_argument("files", nargs=1, metavar="FILE")
        else:
            p.add_argument("files", nargs="+", metavar="FILE")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
        return p

    add("check", "validate every object in a workspace file")
    cover = add("cover", "build and report the cover of each fuzzy subgroup")
    cover.add_argument(
        "--report",
        type=_report_sections,
        default=[],
        help="comma-separated extra sections: " + ",".join(_COVER_SECTIONS),
    )
    add("levels", "list the level subsets of each fuzzy subgroup")
    embed = add("embed", "certify the embedding between two workspaces", nfiles=2)
    embed.add_argument("--grid", type=int, default=4, help="level count of the value grid")
    enum = add("enumerate", "enumerate fuzzy subgroups over each group block")
    enum.add_argument("--grid", type=int, default=4, help="level count of the value grid")
    return parser


# the exit code of each error, first match wins
_EXIT_CODES = (
    ((OSError, UnicodeDecodeError, WorkspaceSyntaxError, UnknownReference), 1),
    (ValidationError, 2),
    (BudgetExceeded, 3),
    (AlgebraError, 4),
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "embed" and len(args.files) > 2:
        parser.error("embed takes at most two files")
    where = ""
    try:
        workspaces = []
        for path in args.files:
            where = f"{path}: "
            workspaces.append(parse_workspace(Path(path).read_text(encoding="utf-8")))
        where = ""
        text, code = run_command(args.command, workspaces, args)
    except (OSError, UnicodeDecodeError, AlgebraError) as exc:
        print(f"error: {where}{exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
