"""Text file formats and JSON serialization.

Exact numbers serialize as records {"N": order, "coeffs": ["p/q", ...]}
with coordinates in the power basis; the complex approximation shipped
alongside is advisory only.  Category and forest files are line-oriented
text, documented in docs/formats.md.
"""

from __future__ import annotations

from fractions import Fraction

from .category import CategoryData, MalformedCategoryError
from .constructions import ConstructionError, abelian_category, sl2_category, \
    trivial_category
from .cyclo import CycloNumber, cyclo_field, make_root
from .surgery import PlumbingForest, forest

# InvariantValue and RefinedInvariantTable (from invariants) appear only in
# annotations, which are never evaluated, so reading a file does not import
# the evaluator


class FormatError(ValueError):
    """Malformed category/forest file or serialized number."""


# ---------------------------------------------------------------------------
# Exact numbers


def rational_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {s!r}") from exc


def cyclo_to_json(x: CycloNumber) -> dict:
    return {"N": x.field.order, "coeffs": [rational_str(c) for c in x.coeffs]}


def cyclo_from_json(obj: dict) -> CycloNumber:
    try:
        order = int(obj["N"])
        coeffs = [parse_rational(c) for c in obj["coeffs"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad serialized number {obj!r}") from exc
    return cyclo_field(order).from_coeffs(coeffs)


def _cyclo_fields_str(x: CycloNumber) -> str:
    return " ".join(rational_str(c) for c in x.coeffs)


# ---------------------------------------------------------------------------
# Category files


def category_to_text(cat: CategoryData) -> str:
    lines = ["spinmod-category v1", f"name {cat.name}", f"field {cat.field.order}",
             f"labels {cat.size}"]
    for i, name in enumerate(cat.labels):
        lines.append(f"label {i} {name}")
    lines.append("dual " + " ".join(str(d) for d in cat.dual))
    for i in range(cat.size):
        lines.append(f"qdim {i} " + _cyclo_fields_str(cat.qdim[i]))
    for i in range(cat.size):
        lines.append(f"twist {i} " + _cyclo_fields_str(cat.twist[i]))
    for i in range(cat.size):
        for j in range(i, cat.size):
            lines.append(f"smat {i} {j} " + _cyclo_fields_str(cat.smat[i][j]))
    for a in range(cat.size):
        for b in range(cat.size):
            for c, mult in cat.fusion_channels(a, b):
                lines.append(f"fusion {a} {b} {c} {mult}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def category_from_text(text: str) -> CategoryData:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "spinmod-category v1":
        raise FormatError("missing 'spinmod-category v1' header")
    name = None
    field = None
    size = None
    label_names: dict[int, str] = {}
    dual = None
    qdim: dict[int, CycloNumber] = {}
    twist: dict[int, CycloNumber] = {}
    smat_entries: dict[tuple[int, int], CycloNumber] = {}
    fusion_entries: list[tuple[int, int, int, int]] = []

    def number(parts: list[str]) -> CycloNumber:
        if field is None:
            raise FormatError("field line must precede numeric data")
        return field.from_coeffs([parse_rational(p) for p in parts])

    for ln in lines[1:]:
        parts = ln.split()
        key = parts[0]
        try:
            if key == "name":
                name = ln[len("name "):].strip()
            elif key == "field":
                field = cyclo_field(int(parts[1]))
            elif key == "labels":
                size = int(parts[1])
            elif key == "label":
                label_names[int(parts[1])] = " ".join(parts[2:]) or str(parts[1])
            elif key == "dual":
                dual = tuple(int(p) for p in parts[1:])
            elif key == "qdim":
                qdim[int(parts[1])] = number(parts[2:])
            elif key == "twist":
                twist[int(parts[1])] = number(parts[2:])
            elif key == "smat":
                smat_entries[(int(parts[1]), int(parts[2]))] = number(parts[3:])
            elif key == "fusion":
                if len(parts) != 5:
                    raise FormatError(f"fusion line needs 4 integers: {ln!r}")
                fusion_entries.append(tuple(int(p) for p in parts[1:]))
            elif key == "end":
                break
            else:
                raise FormatError(f"unknown directive {key!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"bad line {ln!r}: {exc}") from exc
    if None in (name, field, size, dual):
        raise FormatError("missing name/field/labels/dual")
    if size < 1:
        raise FormatError("labels must be at least 1")
    n = size
    indices = {*label_names, *qdim, *twist,
               *(i for ij in smat_entries for i in ij),
               *(i for entry in fusion_entries for i in entry[:3])}
    bad = sorted(i for i in indices if not 0 <= i < n)
    if bad:
        raise FormatError(f"label indices {bad} outside 0..{n - 1}")
    missing = ([i for i in range(n) if i not in qdim]
               + [i for i in range(n) if i not in twist])
    if missing:
        raise FormatError(f"missing qdim/twist entries for labels {missing}")
    smat = [[None] * n for _ in range(n)]
    for (i, j), v in smat_entries.items():
        smat[i][j] = v
        smat[j][i] = v
    holes = [(i, j) for i in range(n) for j in range(n) if smat[i][j] is None]
    if holes:
        raise FormatError(f"missing smat entries {holes[:4]}...")
    fusion = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (a, b, c, mult) in fusion_entries:
        fusion[a][b][c] = mult
    try:
        return CategoryData(
            name=name,
            field=field,
            labels=tuple(label_names.get(i, str(i)) for i in range(n)),
            dual=dual,
            qdim=tuple(qdim[i] for i in range(n)),
            twist=tuple(twist[i] for i in range(n)),
            smat=smat,
            fusion=fusion,
        )
    except MalformedCategoryError as exc:
        raise FormatError(str(exc)) from exc


def resolve_category(source: str) -> CategoryData:
    """A category from a ``builtin:...`` spec string or a category file."""
    if source.startswith("builtin:"):
        kind, *args = source.split(":")[1:]
        arity = {"sl2": 1, "abelian": 3, "trivial": 0}.get(kind)
        if arity is None:
            raise FormatError(f"unknown builtin {kind!r}; use sl2:<r>, "
                              "abelian:<n>:<N>:<k>, trivial")
        try:
            if len(args) != arity:
                raise ValueError(f"wrong number of fields (expected "
                                 f"{arity}, got {len(args)})")
            if kind == "sl2":
                return sl2_category(int(args[0]))
            if kind == "abelian":
                return abelian_category(int(args[0]),
                                        make_root(int(args[1]), int(args[2])))
            return trivial_category()
        except (ValueError, ConstructionError) as exc:
            raise FormatError(f"bad builtin spec {source!r}: {exc}") from exc
    try:
        with open(source, encoding="utf-8") as fh:
            return category_from_text(fh.read())
    except OSError as exc:
        raise FormatError(f"cannot read category file {source}: {exc}") from exc


# ---------------------------------------------------------------------------
# Forest files


def forest_to_text(f: PlumbingForest) -> str:
    lines = [f"vertex {v} framing {m}" for v, m in enumerate(f.framings)]
    for (u, v, sign) in f.edges:
        lines.append(f"edge {u} {v} {'+1' if sign > 0 else '-1'}")
    return "\n".join(lines) + "\n"


def forest_from_text(text: str) -> PlumbingForest:
    framings: dict[int, int] = {}
    edges = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        try:
            if parts[0] == "vertex":
                if len(parts) != 4 or parts[2] != "framing":
                    raise FormatError(f"bad vertex line {ln!r}")
                vid = int(parts[1])
                if vid in framings:
                    raise FormatError(f"duplicate vertex {vid}")
                framings[vid] = int(parts[3])
            elif parts[0] == "edge":
                edges.append((int(parts[1]), int(parts[2]), int(parts[3])))
            else:
                raise FormatError(f"unknown directive {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"bad line {ln!r}: {exc}") from exc
    ids = sorted(framings)
    remap = {vid: k for k, vid in enumerate(ids)}
    try:
        return forest([framings[vid] for vid in ids],
                      [(remap[u], remap[v], s) for (u, v, s) in edges])
    except KeyError as exc:
        raise FormatError(f"edge references unknown vertex {exc}") from None


# ---------------------------------------------------------------------------
# Result records (JSON / CSV)


def invariant_to_json(value: InvariantValue) -> dict:
    approx = value.approx
    return {
        "exact": cyclo_to_json(value.exact),
        "approx": [approx.real, approx.imag],
        "normalization": {
            "b_plus": value.b_plus,
            "b_minus": value.b_minus,
            "denom_plus": cyclo_to_json(value.denom_plus),
            "denom_minus": cyclo_to_json(value.denom_minus),
        },
    }


def table_to_json(table: RefinedInvariantTable) -> dict:
    return {
        "kind": table.kind,
        "d": table.modulus,
        "entries": [
            {"structure": list(key), **invariant_to_json(val)}
            for key, val in sorted(table.entries.items())
        ],
    }


def table_to_csv(table: RefinedInvariantTable) -> str:
    rows = ["structure,exact_N,exact_coeffs,approx_re,approx_im"]
    for key, val in sorted(table.entries.items()):
        coeffs = ";".join(rational_str(c) for c in val.exact.coeffs)
        approx = val.approx
        rows.append(f"\"{' '.join(map(str, key))}\",{val.exact.field.order},"
                    f"\"{coeffs}\",{approx.real!r},{approx.imag!r}")
    return "\n".join(rows) + "\n"
