"""File formats, JSON schemas, CLI behavior and determinism."""

import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from spinmod import formats, verify
from spinmod.cli import main
from spinmod.category import CategoryData
from spinmod.constructions import abelian_category, sl2_category
from spinmod.corpus import e8_forest
from spinmod.cyclo import make_root
from spinmod.invariants import Evaluator
from spinmod.structures import coker_count
from spinmod.surgery import chain, forest

DATA = Path(__file__).resolve().parent / "data"
DOCS = Path(__file__).resolve().parents[1] / "docs"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def test_cyclo_json_roundtrip():
    x = (make_root(12, 5) + 2).scale(formats.Fraction(3, 7))
    obj = formats.cyclo_to_json(x)
    assert obj["N"] == 12
    assert formats.cyclo_from_json(obj) == x
    with pytest.raises(formats.FormatError):
        formats.cyclo_from_json({"coeffs": ["1"]})
    with pytest.raises(formats.FormatError):
        formats.parse_rational("a/b")


@pytest.mark.parametrize("cat", [sl2_category(4), sl2_category(5),
                                 abelian_category(3, make_root(3, 1))])
def test_category_text_roundtrip(cat):
    text = formats.category_to_text(cat)
    back = formats.category_from_text(text)
    assert back.name == cat.name
    assert back.field is cat.field
    assert back.dual == cat.dual
    assert back.qdim == cat.qdim
    assert back.twist == cat.twist
    assert back.smat == cat.smat
    assert back.fusion == cat.fusion
    assert formats.category_to_text(back) == text


def test_category_text_roundtrip_keeps_plain_label_names():
    cat = sl2_category(4)
    named = CategoryData("named", cat.field, ("one", "half", "vector"),
                         cat.dual, cat.qdim, cat.twist, cat.smat, cat.fusion)
    back = formats.category_from_text(formats.category_to_text(named))
    assert back.labels == named.labels == ("one", "half", "vector")


def test_category_text_errors():
    with pytest.raises(formats.FormatError):
        formats.category_from_text("not a header\n")
    good = formats.category_to_text(sl2_category(4))
    broken = good.replace("twist 1 ", "twst 1 ", 1)
    with pytest.raises(formats.FormatError):
        formats.category_from_text(broken)


def test_forest_text_roundtrip():
    f = forest([2, -1, 0], [(0, 1, -1), (1, 2, 1)])
    text = formats.forest_to_text(f)
    assert formats.forest_from_text(text) == f
    sparse = "vertex 10 framing 3\nvertex 4 framing -2\nedge 4 10 -1\n"
    g = formats.forest_from_text(sparse)
    assert g.framings == (-2, 3)
    assert g.edges == ((0, 1, -1),)
    with pytest.raises(formats.FormatError):
        formats.forest_from_text("vertex 0\n")
    with pytest.raises(formats.FormatError):
        formats.forest_from_text("edge 0 1 1\n")


def test_invariant_json_matches_schema(tmp_path):
    schema = json.loads((DOCS / "invariant.schema.json").read_text())
    forest_file = tmp_path / "m.forest"
    forest_file.write_text(formats.forest_to_text(chain([2, 3])))
    rc, out = run_cli("invariant", "--category", "builtin:sl2:8",
                      "--manifold", str(forest_file),
                      "--refine", "spin", "--d", "2", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["table"]["kind"] == "spin"


def test_structures_json_matches_schema():
    schema = json.loads((DOCS / "structures.schema.json").read_text())
    rc, out = run_cli("structures", "spin", "--matrix", "[[0]]", "--d", "2")
    assert rc == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["count"] == 2


def test_cli_examples_from_surface():
    rc, out = run_cli("structures", "chern", "--matrix", "[[0,1],[1,0]]",
                      "--d", "2")
    assert rc == 0 and json.loads(out)["count"] == 1
    rc, _ = run_cli("structures", "spin", "--matrix", "[[1]]", "--d", "3")
    assert rc == 2  # odd modulus rejected as input error


def test_cli_category_roundtrip(tmp_path):
    out_file = tmp_path / "sl26.cat"
    rc, _ = run_cli("category", "derive", "builtin:sl2:6",
                    "--out", str(out_file))
    assert rc == 0
    rc, shown = run_cli("category", "show", str(out_file))
    assert rc == 0
    assert shown == formats.category_to_text(sl2_category(6))
    rc, checked = run_cli("category", "check", str(out_file),
                          "--format", "json")
    assert rc == 0
    doc = json.loads(checked)
    assert doc["premodular"] and doc["modular"]


def test_cli_manifold_show(tmp_path):
    f = tmp_path / "e8.forest"
    f.write_text(formats.forest_to_text(e8_forest()))
    rc, out = run_cli("manifold", "show", str(f), "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["b_plus"] == 8 and doc["b_minus"] == 0 and doc["nullity"] == 0


def test_cli_csv_export(tmp_path):
    forest_file = tmp_path / "m.forest"
    forest_file.write_text("vertex 0 framing 0\n")
    rc, out = run_cli("invariant", "--category", "builtin:sl2:8",
                      "--manifold", str(forest_file),
                      "--refine", "spin", "--d", "2", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("structure,exact_N")
    assert len(lines) == 3  # two spin structures on S1xS2


def test_cli_exit_codes(tmp_path):
    rc, _ = run_cli("category", "check", "builtin:sl2:5")
    assert rc == 0
    rc, _ = run_cli("verify", "moo")
    assert rc == 0
    missing = tmp_path / "nope.forest"
    rc, _ = run_cli("invariant", "--category", "builtin:sl2:8",
                    "--manifold", str(missing))
    assert rc == 2


def run_cli_out_err(*argv):
    err = io.StringIO()
    with redirect_stderr(err):
        rc, out = run_cli(*argv)
    return rc, out, err.getvalue().strip().splitlines()


def run_cli_err(*argv):
    rc, _, err = run_cli_out_err(*argv)
    return rc, err


def reports_a_failure(argv, out):
    """Whether ``out`` gives the reason for exit 1: the violations listed by
    ``category check`` or a ``[FAIL]`` line from ``verify``; no other
    command exits 1."""
    lines = out.splitlines()
    if argv[0] == "verify":
        return any(ln.startswith("[FAIL]") for ln in lines)
    if argv[0] == "category" and "check" in argv:
        try:
            return bool(json.loads(out)["violations"])
        except ValueError:
            return any(ln.startswith("violations: [")
                       and ln != "violations: []" for ln in lines)
    return False


def test_cli_refine_rejects_non_positive_modulus(tmp_path):
    forest_file = tmp_path / "m.forest"
    forest_file.write_text("vertex 0 framing 1\n")
    for refine in ("spin", "coh", "hom", "spinc"):
        for d in ("0", "-2"):
            rc, err = run_cli_err("invariant", "--category", "builtin:sl2:8",
                                  "--manifold", str(forest_file),
                                  "--refine", refine, "--d", d)
            assert rc == 2
            assert err == ["error: modulus d must be positive"]


def test_cli_non_primitive_root_convention_is_bad_input(tmp_path):
    forest_file = tmp_path / "m.forest"
    forest_file.write_text("vertex 0 framing 1\n")
    rc, err = run_cli_err("invariant", "--category", "builtin:sl2:8",
                          "--manifold", str(forest_file), "--e_d", "2",
                          "--refine", "spin", "--d", "2")
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_verify_rejects_non_positive_counts():
    for argv in (("sum", "--corpus-size", "-3"), ("sum", "--corpus-size", "0"),
                 ("kirby", "--sequences", "0"), ("all", "--sequences", "-1")):
        rc, err = run_cli_err("verify", *argv)
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: ")


SL2_4_TEXT = formats.category_to_text(sl2_category(4))
ZEROS_16 = " ".join(["0"] * 8)   # one number of Q(zeta_16)


def zeroed_line(directive, label):
    """(line, replacement) setting the number of sl2(4)'s ``directive
    label`` line to zero."""
    line = next(ln for ln in SL2_4_TEXT.splitlines(keepends=True)
                if ln.startswith(f"{directive} {label} "))
    return line, f"{directive} {label} {ZEROS_16}\n"


BAD_CATEGORY_FILES = {
    "short_dual": ("dual 0 1 2\n", "dual 0 1\n"),
    "negative_multiplicity": ("fusion 1 1 0 1\n", "fusion 1 1 0 -1\n"),
    "fusion_index": ("end\n", "fusion 9 0 0 1\nend\n"),
    "smat_index": ("end\n", f"smat 7 0 {ZEROS_16}\nend\n"),
    "negative_labels": ("labels 3\n", "labels -1\n"),
    "short_fusion": ("end\n", "fusion 1 1\nend\n"),
    "qdim_index": ("end\n", f"qdim 7 {ZEROS_16}\nend\n"),
    "label_index": ("end\n", "label 9 x\nend\n"),
    "zero_twist": zeroed_line("twist", 1),
}
BAD_MATRICES = ("[1]", "[[1],2]", "[[1.5]]", "[[true]]")


@pytest.mark.parametrize("case", [*BAD_CATEGORY_FILES, *BAD_MATRICES])
def test_cli_malformed_category_or_matrix_exits_2(case, tmp_path):
    if case in BAD_CATEGORY_FILES:
        old, new = BAD_CATEGORY_FILES[case]
        assert old in SL2_4_TEXT
        cat_file = tmp_path / f"{case}.cat"
        cat_file.write_text(SL2_4_TEXT.replace(old, new, 1))
        argv = ["category", "check", str(cat_file)]
    else:
        argv = ["structures", "spin", "--matrix", case, "--d", "2"]
    proc = subprocess.run([sys.executable, "-m", "spinmod.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1


def former_traceback_argv(case, tmp_path):
    forest_file = tmp_path / "m.forest"
    forest_file.write_text("vertex 0 framing -1\n")
    if case == "derive_into_missing_dir":
        return ["category", "derive", "builtin:sl2:4",
                "--out", str(tmp_path / "missing" / "x.cat")]
    if case == "deeply_nested_matrix":
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        return ["structures", "hom", "--matrix", str(deep), "--d", "2"]
    cat_file = tmp_path / f"{case}.cat"
    old, new = zeroed_line(*(("twist", 1) if case == "zero_twist"
                             else ("qdim", 2)))
    cat_file.write_text(SL2_4_TEXT.replace(old, new, 1))
    if case == "zero_qdim_verify":
        return ["verify", "sum", "--category", str(cat_file),
                "--corpus-size", "2"]
    argv = ["invariant", "--category", str(cat_file),
            "--manifold", str(forest_file)]
    return argv + ["--refine", "spin"] if case == "zero_qdim_refine" else argv


@pytest.mark.parametrize("case", ["derive_into_missing_dir",
                                  "deeply_nested_matrix", "zero_twist",
                                  "zero_qdim_refine", "zero_qdim_verify"])
def test_cli_former_tracebacks_exit_2(case, tmp_path):
    # each of these escaped as an exception (FileNotFoundError,
    # RecursionError, ZeroDivisionError), i.e. exit 1 with a traceback
    rc, err = run_cli_err(*former_traceback_argv(case, tmp_path))
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_refine_on_a_category_without_unit_exits_2(tmp_path):
    # found by the fuzz test below: the refinement path met the missing
    # unit channel as a KeyError deep inside the subgroup search.  The CLI
    # now refuses the file at its axiom check, and the evaluator still
    # refuses it on its own
    text = SL2_4_TEXT.replace("fusion 0 0 0 1\n", "")
    cat_file = tmp_path / "no_unit.cat"
    cat_file.write_text(text)
    forest_file = tmp_path / "m.forest"
    forest_file.write_text("vertex 0 framing 1\n")
    rc, err = run_cli_err("invariant", "--category", str(cat_file),
                          "--manifold", str(forest_file), "--refine", "spin")
    assert rc == 2
    assert err == [f"error: category {cat_file} is not premodular: "
                   "unit fusion fails at (0,0)"]
    ev = Evaluator(formats.category_from_text(text))
    with pytest.raises(ValueError,
                       match="^the unit label 0 is not invertible$"):
        ev.wrt_spin(forest([1]), 2)


def test_cli_evaluates_only_premodular_category_files(tmp_path):
    # sl2(4) with qdim(2) zeroed fails the axioms; `invariant` used to
    # print a value for it with exit 0, and `verify` ran on it
    cat_file = tmp_path / "zero_qdim.cat"
    old, new = zeroed_line("qdim", 2)
    cat_file.write_text(SL2_4_TEXT.replace(old, new, 1))
    forest_file = tmp_path / "chain.forest"
    forest_file.write_text(formats.forest_to_text(chain([1, 2, 1])))
    message = (f"error: category {cat_file} is not premodular: "
               "smat[2][0] != qdim(2)")
    for argv in (("invariant", "--manifold", str(forest_file)),
                 ("verify", "sum", "--corpus-size", "2"),
                 ("verify", "kirby", "--sequences", "2")):
        assert run_cli_err(*argv, "--category", str(cat_file)) \
            == (2, [message])
    # a file that passes is evaluated like the builtin it came from
    good_file = tmp_path / "sl2_4.cat"
    good_file.write_text(SL2_4_TEXT)
    for source in (str(good_file), "builtin:sl2:4"):
        rc, out = run_cli("invariant", "--category", source,
                          "--manifold", str(forest_file), "--format", "json")
        assert rc == 0
        assert json.loads(out)["invariant"] == formats.invariant_to_json(
            Evaluator(sl2_category(4)).wrt(chain([1, 2, 1])))


@pytest.mark.parametrize("suite", ["all", "bijection", "moo", "axioms"])
def test_cli_verify_category_applies_only_to_sum_and_kirby(suite, tmp_path):
    # the other suites ignored --category and exited 0
    for source in (str(tmp_path / "bad.cat"), "builtin:sl2:5"):
        assert run_cli_err("verify", suite, "--category", source) == \
            (2, ["error: --category applies only to the sum and kirby "
                 "suites"])


FUZZ_TOKENS = st.sampled_from(["0", "1", "-1", "2", "3", "4", "7", "12", "16",
                               "97", "1/2", "1/0", "x", "", "framing", "+1"])


@st.composite
def mutated_text(draw, text):
    """``text`` with one to three line edits: drop, duplicate or truncate a
    line, put a token in place of (or after) one of its words, or zero
    every word after the first two (a zero number on a qdim or twist
    line)."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "dup", "cut", "token", "zero"]))
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "cut":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        elif op == "zero":
            words = lines[i].split()
            lines[i] = " ".join(words[:2] + ["0"] * len(words[2:]))
        else:
            words = lines[i].split()
            j = draw(st.integers(0, len(words)))
            words[j:j + 1] = [draw(FUZZ_TOKENS)]
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


FOREST_TEXT = formats.forest_to_text(
    forest([2, -1, 3, 0], [(0, 1, 1), (1, 2, -1), (1, 3, 1)]))
MATRIX_ENTRIES = st.one_of(st.integers(-3, 3), st.booleans(),
                           st.floats(allow_nan=False), st.text(max_size=2))
FUZZ_MATRICES = st.one_of(
    mutated_text("[[2, 1, 0],\n [1, -2, 1],\n [0, 1, 3]]"),
    st.lists(st.lists(MATRIX_ENTRIES, max_size=3), max_size=3).map(json.dumps))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cli_fuzzed_inputs_keep_the_exit_code_contract(data):
    # exit 0 or 1 for well-formed input, 2 with exactly one error line for
    # malformed input, and never an escaping exception; 1 only with the
    # failure it reports
    command = data.draw(st.sampled_from(["category", "invariant", "structures"]))
    with tempfile.TemporaryDirectory() as tmp:
        cat_file = Path(tmp) / "fuzz.cat"
        cat_file.write_text(data.draw(st.one_of(
            st.just(SL2_4_TEXT), mutated_text(SL2_4_TEXT))))
        forest_file = Path(tmp) / "fuzz.forest"
        forest_file.write_text(data.draw(st.one_of(
            st.just(FOREST_TEXT), mutated_text(FOREST_TEXT))))
        d = str(data.draw(st.integers(-1, 4)))
        if command == "category":
            argv = ["category", "check", str(cat_file)]
        elif command == "invariant":
            argv = ["invariant", "--category", str(cat_file),
                    "--manifold", str(forest_file), "--d", d]
            refine = data.draw(st.sampled_from(
                [None, "spin", "coh", "hom", "spinc"]))
            if refine:
                argv += ["--refine", refine]
        else:
            kind = data.draw(st.sampled_from(["spin", "coh", "chern", "hom"]))
            argv = ["structures", kind, "--matrix",
                    data.draw(FUZZ_MATRICES), "--d", d]
        rc, out, err = run_cli_out_err(*argv)
    assert rc in (0, 1, 2)
    if rc == 1:
        assert reports_a_failure(argv, out)
    if rc == 2:
        assert len([ln for ln in err if ln.startswith("error:")]) == 1


def valid_argvs(forest_file):
    return [
        ["category", "check", "builtin:sl2:5", "--format", "json"],
        ["manifold", "show", forest_file, "--format", "json"],
        ["structures", "coh", "--matrix", "[[2, 1], [1, 2]]", "--d", "3"],
        ["invariant", "--category", "builtin:sl2:8", "--manifold",
         forest_file, "--refine", "spin", "--d", "2"],
        ["verify", "moo", "--seed", "3"],
        ["verify", "bijection", "--corpus-size", "2", "--sequences", "1"],
    ]


# no prefix of --help among them: -h prints usage and exits 0 by design
UNKNOWN_FLAGS = st.sampled_from(["--bogus", "-q", "--d=", "--format=xml",
                                 "--seed=", "---", "-"])
NON_INTEGERS = st.sampled_from(["x", "1.5", "", "0x2", "two", "1e3", " 3"])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cli_fuzzed_argv_keeps_the_exit_code_contract(data):
    # valid argv lists with tokens dropped, duplicated or swapped, unknown
    # flags added and option values made non-integer: exit 0, 1 or 2, one
    # error line with 2, 1 only with the failure it reports, never an
    # escaping exception (argparse's own usage errors included)
    with tempfile.TemporaryDirectory() as tmp:
        forest_file = Path(tmp) / "m.forest"
        forest_file.write_text(FOREST_TEXT)
        argv = list(data.draw(st.sampled_from(valid_argvs(str(forest_file)))))
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(
                ["drop", "dup", "swap", "flag", "value"]))
            if not argv and op != "flag":
                continue
            i = data.draw(st.integers(0, max(len(argv) - 1, 0)))
            if op == "drop":
                del argv[i]
            elif op == "dup":
                argv.insert(i, argv[i])
            elif op == "swap":
                j = data.draw(st.integers(0, len(argv) - 1))
                argv[i], argv[j] = argv[j], argv[i]
            elif op == "flag":
                argv.insert(i, data.draw(UNKNOWN_FLAGS))
            else:
                options = [k for k in range(1, len(argv))
                           if argv[k - 1].startswith("--")] or [i]
                argv[data.draw(st.sampled_from(options))] = \
                    data.draw(NON_INTEGERS)
        rc, out, err = run_cli_out_err(*argv)
    assert rc in (0, 1, 2)
    if rc == 1:
        assert reports_a_failure(argv, out)
    if rc == 2:
        assert len([ln for ln in err if ln.startswith("error:")]) == 1


def test_cli_usage_errors_are_one_line(monkeypatch):
    for argv in (("invariant", "--d", "x"), ("bogus",), ()):
        rc, err = run_cli_err(*argv)
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error: ")
    monkeypatch.setenv("SPINMOD_SEED", "x")
    assert run_cli_err("verify", "moo") == \
        (2, ["error: argument --seed: invalid int value: 'x'"])
    monkeypatch.setenv("SPINMOD_SEED", "11")
    assert run_cli("verify", "bijection") == \
        run_cli("verify", "bijection", "--seed", "11")


ZERO_24 = json.dumps([[0] * 24] * 24)
OVERSIZED = {
    "structures_coh": ["structures", "coh", "--d", "2", "--matrix", ZERO_24],
    "structures_spin": ["structures", "spin", "--d", "2", "--matrix", ZERO_24],
    **{refine: ["invariant", "--category", f"builtin:sl2:{r}", "--refine",
                refine, "--d", "2"]
       for refine, r in (("hom", 6), ("coh", 6), ("spin", 8))},
}


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def assert_refused_before_enumerating(argv):
    """The command exits 2 with one size-limit line, within 2 s and a 1 GB
    address space."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "spinmod.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=20,
                          preexec_fn=_cap_address_space)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "exceeds size limit" in errors[0]
    assert elapsed < 2
    return errors[0]


@pytest.mark.parametrize("case", list(OVERSIZED))
def test_cli_oversized_structure_set_exits_2_before_enumerating(case,
                                                                tmp_path):
    # 24 unlinked 0-framed unknots: ker(L mod 2) has exactly 2^24 vectors
    # of 24 coordinates, over the enumeration budget; the refusal must come
    # from the counts, before any walk, within a 1 GB address space
    argv = OVERSIZED[case]
    if argv[0] == "invariant":
        forest_file = tmp_path / "unknots.forest"
        forest_file.write_text("".join(f"vertex {v} framing 0\n"
                                       for v in range(24)))
        argv = argv + ["--manifold", str(forest_file)]
    assert_refused_before_enumerating(argv)


def test_cli_hom_table_on_the_seeded_250_vertex_tree_exits_2(tmp_path):
    # complete binary trees drawn in turn from one stream, as perfbench's
    # seeded_tree draws them with max_framing=4; the last has 2^26 classes
    rng = random.Random(1)
    for n in (10, 30, 60, 120, 250):
        edges = [((v - 1) // 2, v, rng.choice((1, -1))) for v in range(1, n)]
        tree = forest([rng.randint(-4, 4) for _ in range(n)], edges)
    assert coker_count(tree.linking_matrix(), 2) == 1 << 26
    forest_file = tmp_path / "tree250.forest"
    forest_file.write_text(formats.forest_to_text(tree))
    assert_refused_before_enumerating(
        ["invariant", "--category", "builtin:sl2:6", "--refine", "hom",
         "--d", "2", "--manifold", str(forest_file)])


@pytest.mark.parametrize("case", ["sl2_200", "chain_20000"])
def test_cli_oversized_allocations_exit_2_before_building(case, tmp_path):
    # the packed fusion tables of sl2(200) are 199^3 * 7 bits each, and the
    # 20,000-vertex chain's linking matrix has 4 * 10^8 entries
    if case == "sl2_200":
        argv = ["category", "check", "builtin:sl2:200"]
    else:
        forest_file = tmp_path / "chain.forest"
        forest_file.write_text(formats.forest_to_text(chain([2] * 20000)))
        argv = ["manifold", "show", str(forest_file)]
    error = assert_refused_before_enumerating(argv)
    if case == "sl2_200":
        # sl2(200) itself is admitted: the refusal is check_axioms' charge
        assert "packed fusion associativity" in error


# built-in categories, their fields and verify's sizes, each charged
# before it is built or drawn
OVERSIZED_BUILDS = {
    "sl2_100000": ["category", "check", "builtin:sl2:100000"],
    "field_1000000": ["invariant", "--category",
                      "builtin:abelian:2:1000000:1"],
    "abelian_100000": ["invariant", "--category",
                       "builtin:abelian:100000:8:1"],
    "corpus": ["verify", "sum", "--corpus-size", "100000000"],
    "kirby": ["verify", "kirby", "--sequences", "100000000"],
}


@pytest.mark.parametrize("case", list(OVERSIZED_BUILDS))
def test_cli_oversized_builds_exit_2_before_building(case, tmp_path):
    argv = OVERSIZED_BUILDS[case]
    if argv[0] == "invariant":
        forest_file = tmp_path / "one_vertex.forest"
        forest_file.write_text("vertex 0 framing 1\n")
        argv = argv + ["--manifold", str(forest_file)]
    assert_refused_before_enumerating(argv)


def test_cli_admitted_one_coordinate_output_fits_the_cap(tmp_path):
    # 2^22 kernel vectors of one coordinate are admitted; their JSON, about
    # 112 MB, is written as it is encoded, within a 1 GB address space
    out = tmp_path / "out.json"
    with open(out, "w", encoding="utf-8") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "spinmod.cli", "structures", "coh",
             "--matrix", "[[0]]", "--d", str(1 << 22)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=fh,
            stderr=subprocess.PIPE, text=True, timeout=180,
            preexec_fn=_cap_address_space)
    try:
        assert proc.returncode in (0, 2), proc.stderr
        assert "Traceback" not in proc.stderr
        if proc.returncode == 0:
            head = '{\n  "count": 4194304,\n  "d": 4194304,\n'
            with open(out, encoding="utf-8") as fh:
                assert fh.read(len(head)) == head
        else:
            assert len(proc.stderr.splitlines()) == 1
    finally:
        out.unlink()


# Runs one command, then prints the spinmod modules it loaded.
PROBE = ("import json, sys\n"
         "from spinmod.cli import main\n"
         "rc = main(sys.argv[1:])\n"
         "print(json.dumps([m for m in sys.modules\n"
         "                  if m.startswith('spinmod.')]))\n"
         "sys.exit(rc)\n")


def loaded_modules(*argv):
    """Exit status, stderr lines and the short names of the spinmod modules
    that one command loads in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    names = json.loads(proc.stdout.splitlines()[-1])
    return (proc.returncode, proc.stderr.splitlines(),
            {name.split(".", 1)[1] for name in names})


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    forest_file = tmp_path / "m.forest"
    forest_file.write_text("vertex 0 framing 1\n")
    assert loaded_modules("structures", "spin", "--matrix", "[[1]]",
                          "--d", "2") == \
        (0, [], {"cli", "budget", "category", "cyclo", "structures"})
    for argv in (("manifold", "show", str(forest_file)),
                 ("category", "check", "builtin:sl2:5")):
        assert loaded_modules(*argv) == \
            (0, [], {"cli", "budget", "category", "constructions", "cyclo",
                     "formats", "surgery"})
    rc, _, mods = loaded_modules("invariant", "--category", "builtin:sl2:8",
                                 "--manifold", str(forest_file),
                                 "--refine", "spin")
    assert rc == 0 and "invariants" in mods
    assert not mods & {"corpus", "verify"}
    # formats names invariants' classes only in annotations
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spinmod.formats; "
         "print(sorted(m for m in sys.modules if m.startswith('spinmod.')))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=60)
    assert "formats" in proc.stdout and "invariants" not in proc.stdout


def test_cli_verify_unknown_suite_names_every_suite():
    # the suite names live in verify.ALL_SUITES, and run_suite rejects others
    rc, err = run_cli_err("verify", "bogus")
    assert rc == 2 and len(err) == 1 and err[0].startswith("error: ")
    assert all(repr(name) in err[0] for name in verify.ALL_SUITES)
    # bad counts are refused before verify is imported
    rc, err, mods = loaded_modules("verify", "sum", "--corpus-size", "-3")
    assert rc == 2 and err == ["error: --corpus-size and --sequences must "
                               "be positive"]
    assert "verify" not in mods


def test_cli_verify_reports_are_seed_deterministic():
    rc1, out1 = run_cli("verify", "bijection", "--seed", "11")
    rc2, out2 = run_cli("verify", "bijection", "--seed", "11")
    rc3, out3 = run_cli("verify", "bijection", "--seed", "12")
    assert rc1 == rc2 == rc3 == 0
    assert out1 == out2
    # a different seed still passes but need not be byte-identical
    assert out3.startswith("[PASS] bijection")
    # byte-identity also holds for a suite with measurable runtime
    rc4, out4 = run_cli("verify", "kirby", "--seed", "3", "--sequences", "25")
    rc5, out5 = run_cli("verify", "kirby", "--seed", "3", "--sequences", "25")
    assert rc4 == rc5 == 0 and out4 == out5


def test_cli_verify_all_report_is_pinned():
    # Every suite's report, byte for byte; a change to any computed value,
    # witness or count shows up here.
    proc = subprocess.run(
        [sys.executable, "-m", "spinmod.cli", "verify", "all", "--seed", "7"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        timeout=600)
    assert proc.returncode == 0
    assert proc.stdout == (DATA / "verify_all_seed7.txt").read_bytes()


def test_invariant_csv_requires_refinement(tmp_path):
    forest_file = tmp_path / "m.forest"
    forest_file.write_text("vertex 0 framing 1\n")
    rc, _ = run_cli("invariant", "--category", "builtin:sl2:8",
                    "--manifold", str(forest_file), "--format", "csv")
    assert rc == 2


def test_cli_programmatic_run(tmp_path):
    forest_file = tmp_path / "m.forest"
    forest_file.write_text("vertex 0 framing 1\n")
    rc, out = run_cli("invariant", "--category", "builtin:sl2:8",
                      "--manifold", str(forest_file), "--refine", "spin",
                      "--d", "2", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["table"]["entries"][0]["structure"] == [1]


def test_table_csv_shape():
    ev = Evaluator(sl2_category(6))
    table = ev.wrt_cohomology(forest([0]), 2)
    csv = formats.table_to_csv(table)
    assert csv.count("\n") == 3
