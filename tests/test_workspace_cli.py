import dataclasses
import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fzcover.cli import main
from fzcover.errors import (
    Axiom1Violation,
    UnknownReference,
    WorkspaceSyntaxError,
)
from fzcover.workspace import parse_workspace

F = Fraction
WORKSPACES = Path(__file__).resolve().parent.parent / "workspaces"
MORPHISMS_TEXT = (WORKSPACES / "morphisms.fzw").read_text(encoding="utf-8")

Z2_TEXT = """
group z2
elements e a
table
e a
a e
end

fuzzy mu1 on z2
values e=1 a=1/2
end
"""


def test_parse_workspace_roundtrip():
    ws = parse_workspace(Z2_TEXT)
    assert list(ws.groups) == ["z2"]
    assert list(ws.fuzzies) == ["mu1"]
    assert ws.fuzzies["mu1"].mu == (F(1), F(1, 2))
    assert ws.fuzzy_group["mu1"] == "z2"


def test_parse_morphism_block():
    ws = parse_workspace((WORKSPACES / "morphisms.fzw").read_text())
    assert list(ws.morphisms) == ["collapse"]
    m = ws.morphisms["collapse"]
    assert m.f == (0, 1) and m.lam == (0, 0)
    assert ws.morphism_ends["collapse"] == ("mu1", "mu2")


def test_unknown_group_reference():
    with pytest.raises(UnknownReference):
        parse_workspace("fuzzy mu1 on ghost\nvalues e=1\nend\n")


def test_duplicate_names_rejected():
    text = Z2_TEXT + "\ngroup z2\nelements e\ntable\ne\nend\n"
    with pytest.raises(WorkspaceSyntaxError):
        parse_workspace(text)


def test_syntax_error_carries_position():
    with pytest.raises(WorkspaceSyntaxError) as exc:
        parse_workspace("group z2\nelements e a\ntable\ne a\na q\nend\n")
    assert exc.value.line == 5
    assert exc.value.col == 3


def test_bad_rational_rejected():
    with pytest.raises(WorkspaceSyntaxError):
        parse_workspace(Z2_TEXT.replace("a=1/2", "a=0.5"))


def test_missing_value_rejected():
    with pytest.raises(WorkspaceSyntaxError) as exc:
        parse_workspace(Z2_TEXT.replace(" a=1/2", ""))
    assert "misses values" in str(exc.value)


def test_validation_error_carries_block_and_element_names():
    with pytest.raises(Axiom1Violation) as exc:
        parse_workspace(Z2_TEXT.replace("e=1 a=1/2", "e=1/2 a=1"))
    message = str(exc.value)
    assert "fuzzy mu1" in message and "a*a" in message


# -- command-line behaviour ----------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_command(capsys):
    code, out, err = run_cli(capsys, "check", str(WORKSPACES / "z2.fzw"))
    assert code == 0
    assert "fuzzy mu1: OK (axioms, derived facts)" in out
    assert err == ""


def test_cover_command_sections(capsys):
    code, out, _ = run_cli(
        capsys,
        "cover",
        str(WORKSPACES / "z2.fzw"),
        "--report",
        "sigma,green,levels,order,table",
    )
    assert code == 0
    assert "closed forms (unit, idempotents, order, sigma, maxima): OK" in out
    assert "sigma classes:" in out
    assert "green H:" in out
    assert "level 1/2:" in out
    assert "multiplication table:" in out


def test_levels_command(capsys):
    code, out, _ = run_cli(capsys, "levels", str(WORKSPACES / "v4.fzw"))
    assert code == 0
    assert "level 1/4 of mu1: {e a b c} subgroup: yes" in out


def test_embed_command(capsys):
    code, out, _ = run_cli(
        capsys, "embed", str(WORKSPACES / "z2.fzw"), str(WORKSPACES / "v4.fzw")
    )
    assert code == 0
    assert "hom-sets fuzzy=4 cover=4" in out
    assert "faithful: OK, full: OK" in out


def test_embed_enumerates_when_no_fuzzy_blocks(capsys, tmp_path):
    path = tmp_path / "groups_only.fzw"
    path.write_text("group z2\nelements e a\ntable\ne a\na e\nend\n")
    code, out, _ = run_cli(capsys, "embed", str(path), "--grid", "2")
    assert code == 0
    assert "embed: 9 pair(s), all OK" in out
    assert "z2#0 -> z2#0" in out


def test_embed_with_one_file_lists_its_objects_once(capsys, monkeypatch, tmp_path):
    import fzcover.cli as cli

    path = tmp_path / "groups_only.fzw"
    path.write_text("group z2\nelements e a\ntable\ne a\na e\nend\n")
    expected = run_cli(capsys, "embed", str(path), "--grid", "2")
    enumerate_all = cli.enumerate_fuzzy_subgroups_filter
    groups = []

    def counting(group, grid, budget):
        groups.append(group)
        return enumerate_all(group, grid, budget)

    monkeypatch.setattr(cli, "enumerate_fuzzy_subgroups_filter", counting)
    assert run_cli(capsys, "embed", str(path), "--grid", "2") == expected
    assert len(groups) == 1
    # two files are two workspaces, each enumerated, even when they are one file
    run_cli(capsys, "embed", str(path), str(path), "--grid", "2")
    assert len(groups) == 3


def test_enumerate_command(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", str(WORKSPACES / "z2.fzw"), "--grid", "2"
    )
    assert code == 0
    assert "3 fuzzy subgroup(s)" in out
    assert "chain method agrees: yes" in out


def test_machine_format_is_json_with_schema(capsys):
    code, out, _ = run_cli(
        capsys, "cover", str(WORKSPACES / "z2.fzw"), "--format", "machine"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["status"] == "ok"
    assert doc["report"]["covers"][0]["closed_forms_ok"] is True


def test_exit_code_parse_error(capsys):
    code, out, err = run_cli(capsys, "check", str(WORKSPACES / "bad_syntax.fzw"))
    assert code == 1 and out == "" and "unknown element label" in err
    code, _, err = run_cli(capsys, "check", str(WORKSPACES / "bad_reference.fzw"))
    assert code == 1 and "ghost" in err


@pytest.mark.parametrize(
    "value", ["1" + "0" * 5000, "1/1" + "0" * 5000], ids=["numerator", "denominator"]
)
def test_a_rational_past_the_int_conversion_limit_is_a_syntax_error(capsys, tmp_path, value):
    # int() refuses strings of more than 4300 digits unless the limit is raised
    long = tmp_path / "long.fzw"
    long.write_text(Z2_TEXT.replace("a=1/2", f"a={value}"))
    code, out, err = run_cli(capsys, "check", str(long))
    assert (code, out) == (1, "")
    assert err == f"error: {long}: line 10, col 12: rational has too many digits\n"


def test_exit_code_validation_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "check", str(WORKSPACES / "bad_axiom.fzw"))
    assert code == 2 and out == ""
    assert "mu(a*a)" in err
    # a group table and a morphism that parse but fail their validators
    for text, message in (
        (Z2_TEXT.replace("a e\nend", "a a\nend"), "group z2: element a has no inverse"),
        (
            MORPHISMS_TEXT.replace("map e=e a=a", "map e=a a=e"),
            "morphism collapse: f is not a group homomorphism",
        ),
    ):
        path = tmp_path / "invalid.fzw"
        path.write_text(text)
        assert run_cli(capsys, "check", str(path)) == (2, "", f"error: {path}: {message}\n")


def test_exit_code_budget(capsys):
    # S3 on the 4-level grid visits 540 filter nodes
    code, _, err = run_cli(
        capsys, "enumerate", str(WORKSPACES / "s3.fzw"), "--budget", "100"
    )
    assert code == 3 and err == "error: 101 fuzzy subgroup nodes exceed budget 100\n"


def test_embed_budget_fires_on_the_first_pairs_own_cover_search(capsys):
    # morphisms.fzw holds mu1 and mu2 on Z2, z2.fzw that same mu1.  Every fuzzy
    # search fits in 2 generator images, but the one cover search of
    # Hom(mu1, mu1), the first pair's own hom-set either way round, tries 4:
    # budget 3 fails there, before the composites' Hom(mu1, mu2) is searched
    morphisms, z2 = str(WORKSPACES / "morphisms.fzw"), str(WORKSPACES / "z2.fzw")
    for first, second in ((morphisms, z2), (z2, morphisms)):
        code, out, err = run_cli(capsys, "embed", first, second, "--budget", "3")
        assert code == 3 and out == ""
        assert err == "error: 4 monoid homomorphism nodes exceed budget 3\n"
        code, out, _ = run_cli(capsys, "embed", first, second, "--budget", "4")
        assert code == 0 and "embed: 2 pair(s), all OK" in out


def test_grid_is_built_only_when_used_and_never_above_the_budget(capsys, tmp_path):
    huge = str(10 ** 12)
    z2 = str(WORKSPACES / "z2.fzw")
    # both files have fuzzy blocks, so embed reads no grid
    code, out, _ = run_cli(capsys, "embed", z2, z2, "--grid", huge)
    assert code == 0 and "embed: 1 pair(s), all OK" in out
    refusal = f"error: {huge} grid levels exceed budget 1000000\n"
    code, out, err = run_cli(capsys, "enumerate", z2, "--grid", huge)
    assert (code, out, err) == (3, "", refusal)
    groups_only = tmp_path / "groups_only.fzw"
    groups_only.write_text("group z2\nelements e a\ntable\ne a\na e\nend\n")
    code, out, err = run_cli(capsys, "embed", z2, str(groups_only), "--grid", huge)
    assert (code, out, err) == (3, "", refusal)
    # at the budget the grid is built, and the filter's own budget fires
    code, out, err = run_cli(capsys, "enumerate", z2, "--grid", "5", "--budget", "5")
    assert (code, out, err) == (3, "", "error: 6 fuzzy subgroup nodes exceed budget 5\n")
    code, out, err = run_cli(capsys, "enumerate", z2, "--grid", "6", "--budget", "5")
    assert (code, out, err) == (3, "", "error: 6 grid levels exceed budget 5\n")


def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", str(WORKSPACES / "nope.fzw"))
    assert code == 1 and err != ""


def test_non_utf8_workspace_exits_cleanly(capsys, tmp_path):
    bad = tmp_path / "bad.fzw"
    bad.write_bytes(b"\xff\xfe group")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # with two files, the error names the bad one
    good = WORKSPACES / "z2.fzw"
    code, out, err = run_cli(capsys, "embed", str(good), str(bad))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {bad}: ") and str(good) not in err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_a_usage_error(capsys, budget):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(WORKSPACES / "z2.fzw"), "--budget", budget])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("usage:") == 1
    assert f"budget must be at least 1, got {budget}" in captured.err


Z2_PATH = str(WORKSPACES / "z2.fzw")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["cover", Z2_PATH, "--report", "sigma,bogus"],
            "unknown section 'bogus'; choose from sigma,green,levels,order,table",
        ),
        (["check", Z2_PATH, "--budget", "ten"], "invalid int value: 'ten'"),
        (["embed", Z2_PATH, Z2_PATH, Z2_PATH], "embed takes at most two files"),
    ],
    ids=["report section", "budget", "embed files"],
)
def test_a_usage_error_exits_2_naming_its_fault(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("usage:") == 1
    assert message in captured.err


def test_short_table_row_rejected():
    with pytest.raises(WorkspaceSyntaxError):
        parse_workspace("group z2\nelements e a\ntable\ne a\na\nend\n")
    # a table cut short by end
    with pytest.raises(WorkspaceSyntaxError) as exc:
        parse_workspace("group z2\nelements e a\ntable\ne a\nend\n")
    assert (exc.value.line, exc.value.col) == (5, 1)
    assert "table needs 2 rows of 2 labels" in str(exc.value)


# the workspace text, the text it replaces, its replacement, and the error
MALFORMED = {
    "empty elements line": (
        Z2_TEXT, "elements e a", "elements",
        "line 3, col 1: elements line must list at least one label",
    ),
    "duplicate labels": (
        Z2_TEXT, "elements e a", "elements e e", "line 3, col 1: element labels must be distinct",
    ),
    "label with =": (
        Z2_TEXT, "elements e a", "elements e a=b",
        "line 3, col 12: element label 'a=b' contains '=', so no assignment can name it",
    ),
    "group without end": (Z2_TEXT, "a e\nend", "a e", "line 8, col 1: expected end"),
    "fuzzy without end": (
        Z2_TEXT, "1/2\nend", "1/2", "line 10, col 1: fuzzy mu1 not closed with end",
    ),
    "value twice": (
        Z2_TEXT, "a=1/2", "a=1/2 a=1/2", "line 10, col 18: value for 'a' given twice",
    ),
    "value missing": (Z2_TEXT, "a=1/2", "a=", "line 10, col 12: expected key=value, got 'a='"),
    "morphism without end": (
        MORPHISMS_TEXT, "1=1\nend", "1=1",
        "line 19, col 1: morphism collapse not closed with end",
    ),
    "unknown fuzzy": (
        MORPHISMS_TEXT, "to mu2", "to ghost", "morphism collapse refers to unknown fuzzy 'ghost'",
    ),
    "image twice": (
        MORPHISMS_TEXT, "a=a", "a=a a=e", "line 18, col 13: image of 'a' given twice",
    ),
    "lambda image twice": (
        MORPHISMS_TEXT, "1=1\n", "1=1 1/2=1\n", "line 19, col 18: image of 1/2 given twice",
    ),
    "unknown source element": (
        MORPHISMS_TEXT, "map e=e", "map e=e q=e", "line 18, col 9: unknown source element 'q'",
    ),
    "unknown target element": (
        MORPHISMS_TEXT, "a=a", "a=q", "line 18, col 9: unknown target element 'q'",
    ),
    "lambda outside the source chain": (
        MORPHISMS_TEXT, "1/2=1", "1/4=1", "line 19, col 8: value 1/4 is not in the chain of mu1",
    ),
    "lambda outside the target chain": (
        MORPHISMS_TEXT, "1/2=1", "1/2=1/2",
        "line 19, col 8: value 1/2 is not in the chain of mu2",
    ),
    "map misses an element": (
        MORPHISMS_TEXT, "map e=e a=a", "map e=e",
        "line 20, col 1: morphism collapse must map every element of mu1",
    ),
    "lambda misses a value": (
        MORPHISMS_TEXT, "lambda 1/2=1 1=1", "lambda 1=1",
        "line 20, col 1: morphism collapse must map every chain value of mu1",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_block_exits_1_naming_its_fault(capsys, tmp_path, case):
    text, old, new, message = MALFORMED[case]
    assert text.count(old) == 1
    path = tmp_path / "malformed.fzw"
    path.write_text(text.replace(old, new))
    assert run_cli(capsys, "check", str(path)) == (1, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize(
    "label, reading", [("end", "end"), ("#x", "a comment")], ids=["end", "comment"]
)
def test_a_label_that_cannot_start_a_table_row_is_refused(capsys, tmp_path, label, reading):
    # before, the row starting with the label read as the block's end or as
    # a comment, and the error blamed the table
    path = tmp_path / "label.fzw"
    path.write_text(f"group g\nelements {label} x\ntable\n{label} x\nx {label}\nend\n")
    expected = (
        f"error: {path}: line 2, col 10: "
        f"element label {label!r} would start a table row read as {reading}\n"
    )
    assert run_cli(capsys, "check", str(path)) == (1, "", expected)


def test_degenerate_grid_flag_exits_cleanly(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", str(WORKSPACES / "z2.fzw"), "--grid", "0"
    )
    assert code == 2 and err != ""


def test_exit_code_check_failure(capsys, monkeypatch):
    # a falsified closed form must map to the dedicated exit code
    import fzcover.cli as cli

    monkeypatch.setattr(cli, "cover_report", lambda cover: SimpleNamespace(all_match=False))
    code, out, _ = run_cli(capsys, "cover", str(WORKSPACES / "z2.fzw"))
    assert code == 4
    assert "FAIL" in out


def test_exit_code_failed_certificate(capsys, monkeypatch):
    # a failed certificate prints its counterexample under the pair's line
    import fzcover.cli as cli

    certify = cli.verify_embedding
    shared = "two fuzzy morphisms share one image"
    monkeypatch.setattr(
        cli,
        "verify_embedding",
        lambda a, b, **kw: dataclasses.replace(
            certify(a, b, **kw), faithful=False, counterexample=shared
        ),
    )
    code, out, err = run_cli(capsys, "embed", Z2_PATH, Z2_PATH)
    assert (code, err) == (4, "")
    assert out.splitlines()[1:] == [f"  counterexample: {shared}", "embed: 1 pair(s), FAIL"]
    assert "faithful: FAIL, full: OK" in out.splitlines()[0]


def test_exit_code_routes_disagree(capsys, monkeypatch):
    # the chain route losing a fuzzy subgroup is a check failure
    import fzcover.cli as cli

    chain_route = cli.enumerate_fuzzy_subgroups_chain
    monkeypatch.setattr(
        cli, "enumerate_fuzzy_subgroups_chain", lambda *args: chain_route(*args)[:-1]
    )
    code, out, err = run_cli(capsys, "enumerate", str(WORKSPACES / "z2.fzw"), "--grid", "2")
    assert (code, err) == (4, "")
    assert "(chain method agrees: NO)" in out
    assert out.endswith("enumerate: 1 group(s), FAIL\n")


def test_exit_code_failed_derived_fact(capsys, monkeypatch):
    # a falsified derived fact is a check failure, raised even under python -O
    import fzcover.cli as cli

    monkeypatch.setattr(
        cli,
        "derived_facts",
        lambda fz: SimpleNamespace(unit_dominates=False, inverse_symmetric=True),
    )
    code, out, err = run_cli(capsys, "check", str(WORKSPACES / "z2.fzw"))
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_reports_are_deterministic(capsys):
    runs = [
        run_cli(
            capsys,
            "cover",
            str(WORKSPACES / "v4.fzw"),
            "--report",
            "sigma,green,levels,order,table",
        )
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    runs = [
        run_cli(capsys, "embed", str(WORKSPACES / "z2.fzw"), str(WORKSPACES / "v4.fzw"))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


# -- robustness: mutated workspaces never end in a traceback ---------------------

# a workspace as alternating runs of non-space and space, so joining gives it back
WORKSPACE_TOKENS = [
    re.findall(r"\S+|\s+", path.read_text(encoding="utf-8"))
    for path in sorted(WORKSPACES.glob("*.fzw"))
]
SPARE_TOKENS = sorted({t for tokens in WORKSPACE_TOKENS for t in tokens}) + [
    "0", "-1", "2", "1/0", "0/0", "x=", "=", "e=", "=1", "1.5", "#", "\n", "9" * 30,
    "1" + "0" * 5000,
    # a values line of its own: inserted into a fuzzy block ahead of the block's
    # own line, it reaches the rational parser past int()'s digit limit
    "\nvalues e=1/1" + "0" * 5000 + "\n",
]


def fuzz_runs(path: str) -> list[list[str]]:
    """Every command on one workspace file, under a small budget."""
    runs = [
        ["check", path],
        ["cover", path, "--report", "sigma,green,levels,order,table"],
        ["levels", path],
        ["embed", path, path],
        ["enumerate", path],
    ]
    return [run + ["--budget", "20000"] for run in runs]


@st.composite
def mutated_workspaces(draw):
    """A workspace file with one to three tokens deleted, inserted, replaced or duplicated."""
    tokens = list(draw(st.sampled_from(WORKSPACE_TOKENS)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("delete", "insert", "replace", "duplicate")))
        i = draw(st.integers(0, max(len(tokens) - 1, 0)))
        if kind == "insert" or not tokens:
            tokens.insert(i, draw(st.sampled_from(SPARE_TOKENS)))
        elif kind == "delete":
            del tokens[i]
        elif kind == "replace":
            tokens[i] = draw(st.sampled_from(SPARE_TOKENS))
        else:
            tokens.insert(i, tokens[i])
    return "".join(tokens)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_every_command_ends_cleanly(fuzz_dir, text):
    # one new file per text: truncating a file in place can be slow
    path = fuzz_dir / f"{hashlib.sha256(text.encode()).hexdigest()[:16]}.fzw"
    if not path.exists():
        path.write_text(text, encoding="utf-8")
    for argv in fuzz_runs(str(path)):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in range(5), argv
        assert err.getvalue().count("error:") <= 1, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=mutated_workspaces())
def test_mutated_workspaces_end_cleanly(fuzz_dir, text):
    assert_every_command_ends_cleanly(fuzz_dir, text)


# any characters, with now and then a token of a workspace file among them
ARBITRARY_TEXT = st.lists(
    st.one_of(st.text(max_size=20), st.sampled_from(SPARE_TOKENS)), max_size=20
).map("".join)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=ARBITRARY_TEXT)
def test_arbitrary_text_ends_cleanly(fuzz_dir, text):
    assert_every_command_ends_cleanly(fuzz_dir, text)
