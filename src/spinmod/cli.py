"""Command line front end.

Subcommands: ``category`` (check / show / derive), ``manifold show``,
``structures``, ``invariant``, ``verify``.  Each subparser names its
handler, which reads the parsed arguments and returns 0 on success or
all-pass, or 1 on a verification failure (with a witness in the report).
``main`` is the one place that turns an error into exit 2: any
``ValueError`` (every spinmod error class, and usage errors) or
``OSError`` becomes one ``error: ...`` line on stderr.  ``SPINMOD_SEED``
overrides the default seed; given the same seed, reports are
byte-identical.

A call imports only the modules its subcommand runs: besides the standard
library this module loads ``category`` (for ``check_axioms``), and each
handler imports the rest when it runs, so ``structures`` never compiles
``invariants`` or ``verify``.  The suite names live only in
``verify.ALL_SUITES``; ``verify.run_suite`` rejects an unknown one, which
exits 2 like any other bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from .category import check_axioms


class InputError(ValueError):
    pass


def load_forest(source: str):
    from . import formats
    with open(source, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return formats.forest_from_text(text)
    except ValueError as exc:
        raise InputError(f"bad forest file {source}: {exc}") from exc


def load_category(source: str):
    """A category to evaluate: a file must pass the premodular axioms, a
    builtin is correct by construction and not rechecked."""
    from . import formats
    cat = formats.resolve_category(source)
    bad = [] if source.startswith("builtin:") else check_axioms(cat).violations
    if bad:
        raise InputError(f"category {source} is not premodular: {bad[0]}")
    return cat


def load_matrix(source: str):
    from .structures import as_matrix
    text = source
    if not source.lstrip().startswith("["):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    text = text.strip()
    try:
        if text.startswith("["):
            rows = json.loads(text)
        else:
            rows = [[int(v) for v in ln.split()]
                    for ln in text.splitlines() if ln.strip()]
        return as_matrix(rows)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"bad matrix {source!r}: {exc}") from exc


def _emit(obj: dict, fmt: str) -> None:
    """Print ``obj`` as JSON (tuples as lists) or as indented text.  The
    JSON is written in blocks of chunks as it is encoded, so an output the
    charges admitted is never held whole as one string."""
    if fmt == "json":
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
        while block := "".join(islice(chunks, 8192)):
            sys.stdout.write(block)
        print()
    else:
        _pretty(obj)


def _pretty(obj: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, val in obj.items():
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _pretty(val, indent + 1)
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{pad}{key}:")
            for item in val:
                _pretty(item, indent + 1)
                print()
        else:
            print(f"{pad}{key}: {val}")


def _run_category(args) -> int:
    if args.out and args.action != "derive":
        raise InputError("--out applies only to derive")
    from . import formats
    cat = formats.resolve_category(args.source)
    if args.action == "check":
        report = check_axioms(cat)
        out = {
            "category": cat.name, "labels": cat.size,
            "field": cat.field.order,
            "premodular": report.premodular, "modular": report.modular,
            "transparent": list(report.transparent),
            "violations": report.violations,
        }
        _emit(out, args.format)
        return 0 if report.premodular else 1
    text = formats.category_to_text(cat)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {cat.name} ({cat.size} labels) to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _run_manifold(args) -> int:
    from .surgery import forest_signature
    f = load_forest(args.source)
    mat = f.linking_matrix()
    sig = forest_signature(f)
    out = {
        "vertices": f.n,
        "edges": [list(e) for e in f.edges],
        "linking_matrix": [list(r) for r in mat],
        "b_plus": sig.b_plus, "b_minus": sig.b_minus, "nullity": sig.nullity,
    }
    _emit(out, args.format)
    return 0


# structure kind -> representatives of the set over L mod d, from the
# structures module
_STRUCTURE_KINDS = {
    "spin": lambda s, mat, d: s.spin_solutions(mat, d).solutions,
    "coh": lambda s, mat, d: s.cohomology_classes(mat, d).solutions,
    "chern": lambda s, mat, d: s.chern_representatives(mat, d),
    "hom": lambda s, mat, d: s.homology_representatives(mat, d),
}

# refinement -> its table, from an Evaluator, a forest and the arguments
_REFINEMENTS = {
    "spin": lambda ev, f, args: ev.wrt_spin(f, args.d, e_k=args.e_d),
    "coh": lambda ev, f, args: ev.wrt_cohomology(f, args.d, e_k=args.e_d),
    "spinc": lambda ev, f, args: ev.wrt_spinc(f, args.d, e_k=args.e_d,
                                              override=args.override),
    "hom": lambda ev, f, args: ev.wrt_homology(f, args.d, e_k=args.e_d),
}


def _run_structures(args) -> int:
    from . import structures
    reps = _STRUCTURE_KINDS[args.kind](structures, load_matrix(args.matrix),
                                       args.d)
    _emit({"kind": args.kind, "d": args.d, "count": len(reps),
           "representatives": reps}, "json")
    return 0


def _run_invariant(args) -> int:
    from . import formats
    from .invariants import Evaluator
    cat = load_category(args.category)
    f = load_forest(args.manifold)
    ev = Evaluator(cat)
    out = {
        "category": cat.name,
        "manifold": {"vertices": f.n, "edges": [list(e) for e in f.edges]},
        "invariant": formats.invariant_to_json(ev.wrt(f)),
    }
    table = None
    if args.refine:
        table = _REFINEMENTS[args.refine](ev, f, args)
        out["table"] = formats.table_to_json(table)
    if args.format != "csv":
        _emit(out, args.format)
    elif table is None:
        raise InputError("csv output requires --refine")
    else:
        sys.stdout.write(formats.table_to_csv(table))
    return 0


def _run_verify(args) -> int:
    if args.corpus_size < 1 or args.sequences < 1:
        raise InputError("--corpus-size and --sequences must be positive")
    if args.category and args.suite not in ("sum", "kirby"):
        raise InputError("--category applies only to the sum and kirby "
                         "suites")
    from . import verify
    if args.suite == "all":
        reports = verify.run_all(seed=args.seed)
    else:
        kwargs = {"seed": args.seed, "size": args.corpus_size,
                  "sequences": args.sequences}
        if args.category:
            kwargs["category"] = load_category(args.category)
        reports = [verify.run_suite(args.suite, **kwargs)]
    for report in reports:
        print(report.render())
    return 0 if all(r.passed for r in reports) else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors become an `InputError`, so they exit 2 with the same
    one-line message as any other bad input; ``-h`` still prints usage.
    Subparsers inherit the class."""

    def error(self, message):
        raise InputError(" ".join(message.split()))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinmod",
        description="Exact refined quantum invariants of plumbed 3-manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("category", help="inspect or export category data")
    p_cat.set_defaults(handler=_run_category)
    p_cat.add_argument("action", choices=["check", "show", "derive"])
    p_cat.add_argument("source", help="category file or builtin:... spec")
    p_cat.add_argument("--out", help="output file for derive")
    p_cat.add_argument("--format", choices=["pretty", "json"], default="pretty")

    p_man = sub.add_parser("manifold", help="inspect a plumbing forest")
    p_man.set_defaults(handler=_run_manifold)
    p_man.add_argument("action", choices=["show"])
    p_man.add_argument("source", help="forest file")
    p_man.add_argument("--format", choices=["pretty", "json"], default="pretty")

    p_str = sub.add_parser("structures", help="enumerate structure sets")
    p_str.set_defaults(handler=_run_structures)
    p_str.add_argument("kind", choices=list(_STRUCTURE_KINDS))
    p_str.add_argument("--matrix", required=True,
                       help="inline JSON like [[0,1],[1,0]] or a file")
    p_str.add_argument("--d", type=int, required=True)

    p_inv = sub.add_parser("invariant", help="compute invariants")
    p_inv.set_defaults(handler=_run_invariant)
    p_inv.add_argument("--category", required=True)
    p_inv.add_argument("--manifold", required=True, help="forest file")
    p_inv.add_argument("--refine", choices=list(_REFINEMENTS))
    p_inv.add_argument("--d", type=int, default=2)
    p_inv.add_argument("--e_d", type=int, default=1, metavar="K",
                       help="use zeta_d^K as the primitive root convention")
    p_inv.add_argument("--override", action="store_true",
                       help="relax refinement hypotheses (exploration only)")
    p_inv.add_argument("--format", choices=["pretty", "json", "csv"],
                       default="pretty")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.set_defaults(handler=_run_verify)
    p_ver.add_argument("suite", help="a key of verify.ALL_SUITES, or all")
    # a string default goes through type=int, so a bad SPINMOD_SEED is a
    # usage error like a bad --seed
    p_ver.add_argument("--seed", type=int,
                       default=os.environ.get("SPINMOD_SEED", "7"))
    p_ver.add_argument("--corpus-size", type=int, default=50)
    p_ver.add_argument("--sequences", type=int, default=200)
    p_ver.add_argument("--category",
                       help="narrow the sum/kirby suites to one category")

    return parser


def main(argv=None) -> int:
    """Run one command: exit status 0 / 1 as its handler returns, 2 with
    one ``error:`` line for unusable input or an unreadable or unwritable
    file."""
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
