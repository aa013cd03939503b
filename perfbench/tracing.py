"""Span tracer installed around spinmod's public functions from outside.

``Tracer.install(modules)`` wraps every public module-level function of
the ten spinmod modules, plus the hot methods named in ``METHODS``, and
rebinds every reference to an original that lives in a ``spinmod.*``
module: module attributes (including names imported from another
module, such as ``cli.check_axioms``), values of module-level dicts
(``verify.ALL_SUITES``) and class attributes (``CycloNumber.__rmul__``).
``uninstall`` puts every original back, so untraced runs execute the
unmodified program.

A span wrapper records (name, start, end, parent span, job) in compact
arrays and accumulates calls and self time, which is the span's duration
minus the time covered by its traced child spans.  ``COUNT_ONLY`` names
are counted without a span because they are called millions of times;
their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
from array import array
from time import perf_counter

MODULES = ("cyclo", "category", "constructions", "surgery", "structures",
           "invariants", "corpus", "formats", "verify", "cli")

# Methods traced under "<module>.<method>"; the dict value is the class.
METHODS = {
    "cyclo": ("CycloNumber", ("invert", "__mul__")),
    "surgery": ("PlumbingForest", ("linking_matrix",)),
    "invariants": ("Evaluator", ("eval_weighted", "brute_weighted",
                                 "normalize", "wrt", "wrt_spin",
                                 "wrt_cohomology", "wrt_homology",
                                 "wrt_spinc", "wrt_generalized_spin")),
}
RENAMES = {"cyclo.__mul__": "cyclo.mul"}
COUNT_ONLY = frozenset({"cyclo.mul"})

# Structure-set sizes and enumerated subgroup sizes, summed from results.
SET_FUNCS = frozenset({"structures.spin_solutions",
                       "structures.cohomology_classes",
                       "structures.chern_vectors",
                       "structures.homology_classes"})
SUBGROUP_FUNCS = frozenset({"structures.image_subgroup",
                            "structures.image_subgroup_factored"})
TABLE_FUNCS = frozenset({"invariants.wrt_spin", "invariants.wrt_cohomology",
                         "invariants.wrt_homology", "invariants.wrt_spinc",
                         "invariants.wrt_generalized_spin"})


def _public_functions(mod, short):
    """(name, function) for functions defined in ``mod`` itself."""
    out = []
    for attr, val in vars(mod).items():
        if attr.startswith("_"):
            continue
        target = getattr(val, "__wrapped__", val)  # lru_cache wrappers
        if not inspect.isfunction(target):
            continue
        if getattr(target, "__module__", None) != mod.__name__:
            continue
        out.append((f"{short}.{attr}", val))
    return out


class Tracer:
    """Collects spans and counters; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.sums = {"structures.set_size.sum": 0,
                     "structures.subgroup_size.sum": 0,
                     "invariants.entries": 0}
        # span columns, indexed by span id
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.job = -1
        self._stack: list[list] = []
        self._count_cells: dict[str, list[int]] = {}
        self._rebound: list[tuple[object, str, object, bool]] = []
        self.originals: dict[int, object] = {}
        self.wrappers: dict[int, object] = {}

    # -- wrappers ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = nid
        return nid

    def _span_wrapper(self, name: str, fn):
        tracer = self
        nid = self._name_id(name)
        stack = self._stack
        calls, self_s, sums = self.calls, self.self_s, self.sums
        calls[name] = 0
        self_s[name] = 0.0
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_job = self.span_parent, self.span_job
        kind = ("set" if name in SET_FUNCS else
                "subgroup" if name in SUBGROUP_FUNCS else
                "table" if name in TABLE_FUNCS else
                "entry" if name == "invariants.wrt" else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(s_name)
            s_name.append(nid)
            s_start.append(0.0)
            s_end.append(0.0)
            s_parent.append(stack[-1][0] if stack else -1)
            s_job.append(tracer.job)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                s_start[sid] = t0
                s_end[sid] = t1
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if kind == "set":
                sums["structures.set_size.sum"] += result.count
            elif kind == "subgroup":
                sums["structures.subgroup_size.sum"] += len(result)
            elif kind == "table":
                sums["invariants.entries"] += len(result.entries)
            elif kind == "entry":
                sums["invariants.entries"] += 1
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        cell = self._count_cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def targets(self, modules: dict):
        """(metric name, original callable) for everything to be traced."""
        found = []
        for short in MODULES:
            mod = modules[short]
            found.extend(_public_functions(mod, short))
            if short in METHODS:
                cls_name, meths = METHODS[short]
                cls = getattr(mod, cls_name)
                for meth in meths:
                    name = RENAMES.get(f"{short}.{meth}", f"{short}.{meth}")
                    found.append((name, vars(cls)[meth]))
        return found

    def install(self, modules: dict) -> None:
        """Wrap the targets and rebind every spinmod reference to them."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        for name, fn in self.targets(modules):
            if id(fn) in self.originals:
                continue
            make = (self._count_wrapper if name in COUNT_ONLY
                    else self._span_wrapper)
            self.originals[id(fn)] = fn
            self.wrappers[id(fn)] = make(name, fn)
        for owner, attr, _val in spinmod_references(self.originals):
            self._rebind(owner, attr)

    def _rebind(self, owner, attr) -> None:
        if isinstance(owner, dict):
            orig = owner[attr]
            owner[attr] = self.wrappers[id(orig)]
            self._rebound.append((owner, attr, orig, True))
        else:
            orig = vars(owner)[attr]
            setattr(owner, attr, self.wrappers[id(orig)])
            self._rebound.append((owner, attr, orig, False))

    def uninstall(self) -> None:
        for owner, attr, orig, is_dict in reversed(self._rebound):
            if is_dict:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._rebound.clear()
        for name, cell in self._count_cells.items():
            self.calls[name] = cell[0]

    # -- results -------------------------------------------------------------

    def root_time_of_jobs(self) -> float:
        """Total duration of job spans without a traced parent: the part
        of job time that named spans cover."""
        total = 0.0
        for sid in range(len(self.span_name)):
            if self.span_parent[sid] == -1 and self.span_job[sid] >= 0:
                total += self.span_end[sid] - self.span_start[sid]
        return total

    def write(self, path: str) -> None:
        """Write every span as gzip'd CSV: id,name,start,end,parent,job."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,job\n")
            names = self.names
            for sid in range(len(self.span_name)):
                fh.write(f"{sid},{names[self.span_name[sid]]},"
                         f"{self.span_start[sid]!r},{self.span_end[sid]!r},"
                         f"{self.span_parent[sid]},{self.span_job[sid]}\n")


def spinmod_references(objects: dict):
    """Every (owner, attr, value) in a loaded ``spinmod.*`` module whose
    value is one of ``objects`` (keyed by id): module attributes, values
    of module-level dicts, and attributes of classes defined in spinmod."""
    import sys
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "spinmod"
                               or modname.startswith("spinmod.")):
            continue
        for attr, val in vars(mod).items():
            if id(val) in objects and objects[id(val)] is val:
                found.append((mod, attr, val))
            elif isinstance(val, dict):
                for key, item in val.items():
                    if id(item) in objects and objects[id(item)] is item:
                        found.append((val, key, item))
            elif (isinstance(val, type)
                  and val.__module__.startswith("spinmod")):
                for cattr, cval in vars(val).items():
                    if id(cval) in objects and objects[id(cval)] is cval:
                        found.append((val, cattr, cval))
    # a class imported into several modules is visited once per module
    unique, seen = [], set()
    for owner, attr, val in found:
        key = (id(owner), attr)
        if key not in seen:
            seen.add(key)
            unique.append((owner, attr, val))
    return unique
