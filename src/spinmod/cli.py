"""Command line front end.

Subcommands: ``category`` (check / show / derive), ``manifold show``,
``structures``, ``invariant``, ``verify``.  All invocations resolve to a
``JobSpec`` record dispatched by ``run``, which returns 0 on success or
all-pass, 1 on a verification failure (with a witness in the report), and
2 on unusable input.  ``SPINMOD_SEED`` overrides the default seed; given
the same seed, reports are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import formats, structures, verify
from .category import MalformedCategoryError, check_axioms
from .invariants import Evaluator, InvariantError
from .surgery import signature


class InputError(ValueError):
    pass


@dataclass
class JobSpec:
    """Resolved invocation parameters for one run.

    ``command`` selects the handler; the remaining fields are consulted as
    that handler needs them.  The refinement modulus is validated against
    the category's refinable structures by the evaluator unless
    ``override`` is set.
    """

    command: str
    action: str | None = None
    category_source: str | None = None
    manifold_source: str | None = None
    matrix_source: str | None = None
    kind: str | None = None
    refine: str | None = None
    d: int = 2
    e_k: int = 1
    override: bool = False
    output: str = "pretty"
    out_file: str | None = None
    seed: int = 7
    corpus_size: int = 50
    sequences: int = 200
    suite: str | None = None


def load_category(source: str):
    try:
        return formats.resolve_category(source)
    except formats.FormatError as exc:
        raise InputError(str(exc)) from exc


def load_forest(source: str):
    try:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read forest file {source}: {exc}") from exc
    try:
        return formats.forest_from_text(text)
    except Exception as exc:
        raise InputError(f"bad forest file {source}: {exc}") from exc


def load_matrix(source: str):
    text = source
    if not source.lstrip().startswith("["):
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read matrix {source}: {exc}") from exc
    text = text.strip()
    try:
        if text.startswith("["):
            rows = json.loads(text)
        else:
            rows = [[int(v) for v in ln.split()]
                    for ln in text.splitlines() if ln.strip()]
        return structures.as_matrix(rows)
    except (ValueError, structures.StructureError) as exc:
        raise InputError(f"bad matrix {source!r}: {exc}") from exc


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
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


def _run_category(spec: JobSpec) -> int:
    cat = load_category(spec.category_source)
    if spec.action == "check":
        report = check_axioms(cat)
        out = {
            "category": cat.name, "labels": cat.size,
            "field": cat.field.order,
            "premodular": report.premodular, "modular": report.modular,
            "transparent": list(report.transparent),
            "violations": report.violations,
        }
        _emit(out, spec.output)
        return 0 if report.premodular else 1
    if spec.action == "show":
        sys.stdout.write(formats.category_to_text(cat))
        return 0
    if spec.action == "derive":
        text = formats.category_to_text(cat)
        if spec.out_file:
            with open(spec.out_file, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {cat.name} ({cat.size} labels) to {spec.out_file}")
        else:
            sys.stdout.write(text)
        return 0
    raise InputError(f"unknown category action {spec.action!r}")


def _run_manifold(spec: JobSpec) -> int:
    f = load_forest(spec.manifold_source)
    mat = f.linking_matrix()
    sig = signature(mat)
    out = {
        "vertices": f.n,
        "edges": [list(e) for e in f.edges],
        "linking_matrix": [list(r) for r in mat],
        "b_plus": sig.b_plus, "b_minus": sig.b_minus, "nullity": sig.nullity,
    }
    _emit(out, spec.output)
    return 0


def _run_structures(spec: JobSpec) -> int:
    mat = load_matrix(spec.matrix_source)
    d = spec.d
    try:
        if spec.kind == "spin":
            reps = structures.spin_solutions(mat, d).solutions
        elif spec.kind == "coh":
            reps = structures.cohomology_classes(mat, d).solutions
        elif spec.kind == "chern":
            reps = structures.chern_representatives(mat, d)
        elif spec.kind == "hom":
            reps = structures.homology_representatives(mat, d)
        else:
            raise InputError(f"unknown structure kind {spec.kind!r}")
    except structures.StructureError as exc:
        raise InputError(str(exc)) from exc
    out = {"kind": spec.kind, "d": d, "count": len(reps),
           "representatives": [list(r) for r in reps]}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _run_invariant(spec: JobSpec) -> int:
    cat = load_category(spec.category_source)
    f = load_forest(spec.manifold_source)
    ev = Evaluator(cat)
    table = None
    try:
        value = ev.wrt(f)
        out = {
            "category": cat.name,
            "manifold": {"vertices": f.n, "edges": [list(e) for e in f.edges]},
            "invariant": formats.invariant_to_json(value),
        }
        if spec.refine:
            d = spec.d
            if spec.refine == "spin":
                table = ev.wrt_spin(f, d, e_k=spec.e_k)
            elif spec.refine == "coh":
                table = ev.wrt_cohomology(f, d, e_k=spec.e_k)
            elif spec.refine == "spinc":
                table = ev.wrt_spinc(f, d, e_k=spec.e_k,
                                     override=spec.override)
            elif spec.refine == "hom":
                table = ev.wrt_homology(f, d, e_k=spec.e_k)
            else:
                raise InputError(f"unknown refinement {spec.refine!r}")
            out["table"] = formats.table_to_json(table)
    except (InvariantError, MalformedCategoryError,
            structures.StructureError) as exc:
        raise InputError(str(exc)) from exc
    if spec.output == "csv":
        if table is None:
            raise InputError("csv output requires --refine")
        sys.stdout.write(formats.table_to_csv(table))
    else:
        _emit(out, "json" if spec.output == "json" else "pretty")
    return 0


def _run_verify(spec: JobSpec) -> int:
    if spec.corpus_size < 1 or spec.sequences < 1:
        raise InputError("--corpus-size and --sequences must be positive")
    try:
        if spec.suite == "all":
            reports = verify.run_all(seed=spec.seed)
        else:
            kwargs = {"seed": spec.seed, "size": spec.corpus_size,
                      "sequences": spec.sequences}
            if spec.category_source:
                kwargs["category"] = load_category(spec.category_source)
            reports = [verify.run_suite(spec.suite, **kwargs)]
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    for report in reports:
        print(report.render())
    return 0 if all(r.passed for r in reports) else 1


_HANDLERS = {
    "category": _run_category,
    "manifold": _run_manifold,
    "structures": _run_structures,
    "invariant": _run_invariant,
    "verify": _run_verify,
}


def run(spec: JobSpec) -> int:
    """Dispatch one resolved job; exit status 0 / 1 / 2 as documented."""
    handler = _HANDLERS.get(spec.command)
    if handler is None:
        raise InputError(f"unknown command {spec.command!r}")
    return handler(spec)


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
    p_cat.add_argument("action", choices=["check", "show", "derive"])
    p_cat.add_argument("source", help="category file or builtin:... spec")
    p_cat.add_argument("--out", help="output file for derive")
    p_cat.add_argument("--format", choices=["pretty", "json"], default="pretty")

    p_man = sub.add_parser("manifold", help="inspect a plumbing forest")
    p_man.add_argument("action", choices=["show"])
    p_man.add_argument("source", help="forest file")
    p_man.add_argument("--format", choices=["pretty", "json"], default="pretty")

    p_str = sub.add_parser("structures", help="enumerate structure sets")
    p_str.add_argument("kind", choices=["spin", "coh", "chern", "hom"])
    p_str.add_argument("--matrix", required=True,
                       help="inline JSON like [[0,1],[1,0]] or a file")
    p_str.add_argument("--d", type=int, required=True)

    p_inv = sub.add_parser("invariant", help="compute invariants")
    p_inv.add_argument("--category", required=True)
    p_inv.add_argument("--manifold", required=True, help="forest file")
    p_inv.add_argument("--refine", choices=["spin", "coh", "spinc", "hom"])
    p_inv.add_argument("--d", type=int, default=2)
    p_inv.add_argument("--e_d", type=int, default=1, metavar="K",
                       help="use zeta_d^K as the primitive root convention")
    p_inv.add_argument("--override", action="store_true",
                       help="relax refinement hypotheses (exploration only)")
    p_inv.add_argument("--format", choices=["pretty", "json", "csv"],
                       default="pretty")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(verify.ALL_SUITES) + ["all"])
    # a string default goes through type=int, so a bad SPINMOD_SEED is a
    # usage error like a bad --seed
    p_ver.add_argument("--seed", type=int,
                       default=os.environ.get("SPINMOD_SEED", "7"))
    p_ver.add_argument("--corpus-size", type=int, default=50)
    p_ver.add_argument("--sequences", type=int, default=200)
    p_ver.add_argument("--category",
                       help="narrow the sum/kirby suites to one category")

    return parser


def job_from_args(args: argparse.Namespace) -> JobSpec:
    spec = JobSpec(command=args.command)
    if args.command == "category":
        spec.action = args.action
        spec.category_source = args.source
        spec.out_file = args.out
        spec.output = args.format
    elif args.command == "manifold":
        spec.action = args.action
        spec.manifold_source = args.source
        spec.output = args.format
    elif args.command == "structures":
        spec.kind = args.kind
        spec.matrix_source = args.matrix
        spec.d = args.d
    elif args.command == "invariant":
        spec.category_source = args.category
        spec.manifold_source = args.manifold
        spec.refine = args.refine
        spec.d = args.d
        spec.e_k = args.e_d
        spec.override = args.override
        spec.output = args.format
    elif args.command == "verify":
        spec.suite = args.suite
        spec.seed = args.seed
        spec.corpus_size = args.corpus_size
        spec.sequences = args.sequences
        spec.category_source = args.category
    return spec


def main(argv=None) -> int:
    try:
        return run(job_from_args(build_parser().parse_args(argv)))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
