"""Out-of-process-code tracer for one `cechmv compute` run, and span analysis.

The tracer wraps public functions of the `cechmv` modules at every name their
callers look up (a function imported into several modules is bound once per
module; a method is looked up on its class), so nothing under `src/` changes.
Each call records a span (name, start, end, parent) in memory; some calls also
add to counters.  `Tracer.dump` writes both out when the run ends.

The analysis half (`SpanTree`) reads the spans back and computes inclusive and
self times.  A span's self time is its duration minus the durations of its
children; spans come from one thread, so children never overlap and the self
times of all spans sum to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _cells(args, result) -> int:
    a = args[1]
    return int(a.shape[0]) * int(a.shape[1])


def _lattice_entries(args, result) -> int:
    return sum(result.dims.values())


def _total_dim(args, result) -> int:
    return max(result.dims.values(), default=0)


def _classes(args, result) -> dict:
    return {"degrees": sum(len(members) for _pat, members in result), "classes": len(result)}


def _task_name(args) -> str:
    return "cli.run_unit." + args[1].replace(":", "-")


# (span name or fn(args) -> name, defining module, attribute, binding modules
#  or None for every `cechmv` module that binds the same object, counters).
# A counter is (key, fn(args, result), "sum" | "max"); fn may return a dict of
# key -> value, in which case key is a prefix.
TARGETS = (
    ("cli.load_job", "cechmv.cli", "load_job", None, ()),
    (_task_name, "cechmv.cli", "run_unit", None, ()),
    ("cech.degree_classes", "cechmv.cech", "degree_classes", None,
     (("cech", _classes, "max"),)),
    ("cech.pattern", "cechmv.cech", "OracleCache.pattern", None, ()),
    ("cech.oracle_table", "cechmv.cech", "OracleCache.table", None, ()),
    ("cech.oracle_vectors", "cechmv.cech", "OracleCache.vectors", None,
     (("cech.oracle_seq_len_max", lambda a, r: len(a[1]), "max"),)),
    # `rank` as bound in `cech` is called only by the oracle
    ("cech.oracle_rank", "cechmv.linalg", "rank", ("cechmv.cech",),
     (("cech.oracle_rank_cells", _cells, "sum"),)),
    ("cech.cech_multicomplex", "cechmv.cech", "cech_multicomplex", None,
     (("cech.lattice_entries", _lattice_entries, "sum"),)),
    ("cech.verify_product_vs_interior", "cechmv.cech", "verify_product_vs_interior", None, ()),
    ("multicomplex.koszul_split", "cechmv.multicomplex", "koszul_split", None, ()),
    ("multicomplex.cube_extension", "cechmv.multicomplex", "cube_extension", None, ()),
    ("multicomplex.totalize", "cechmv.multicomplex", "totalize", None,
     (("multicomplex.total_dim_max", _total_dim, "max"),)),
    ("multicomplex.restrict", "cechmv.multicomplex", "restrict", None, ()),
    ("multicomplex.augment_interior", "cechmv.multicomplex", "augment_interior", None,
     (("multicomplex.total_dim_max", _total_dim, "max"),)),
    ("spectral.filtration_from_blocks", "cechmv.spectral", "filtration_from_blocks", None, ()),
    ("spectral.page", "cechmv.spectral", "SpectralSequence.page", None, ()),
    ("spectral.infinity", "cechmv.spectral", "SpectralSequence.infinity", None, ()),
    ("spectral.region_convergence_report", "cechmv.spectral", "region_convergence_report", None, ()),
    ("mvss.run_variant", "cechmv.mvss", "run_variant", None, ()),
    ("mvss.mv_les", "cechmv.mvss", "mv_les", None, ()),
    ("mvss.infinity_filtration_report", "cechmv.mvss", "infinity_filtration_report", None, ()),
    # `rank`, `kernel`, `solve` and the subspace operations all reach `rref`
    # through the `linalg` module globals
    ("linalg.rref", "cechmv.linalg", "rref", None,
     (("linalg.rref_cells", _cells, "sum"),)),
    ("linalg.mul", "cechmv.linalg", "mul", None, ()),
)

ROOT = "cli.main"


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent index or -1)
        self.counters: dict[str, int] = {}
        self._stack: list[int] = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _count(self, counters, args, result) -> None:
        for key, fn, how in counters:
            got = fn(args, result)
            items = got.items() if isinstance(got, dict) else ((None, got),)
            for sub, v in items:
                k = f"{key}.{sub}" if sub else key
                old = self.counters.get(k, 0)
                self.counters[k] = old + v if how == "sum" else max(old, v)

    def wrap(self, fn, name, counters=()):
        """Return `fn` wrapped in a span named `name`, or `name(args)` if it
        is callable."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        fixed = None if callable(name) else self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._name_id(name(args))
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (nid, start, clock(), parent)
                stack.pop()
            if counters:
                self._count(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every target; fail if a target has none."""
        for name, modname, attr, binders, counters in TARGETS:
            owner = importlib.import_module(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self.wrap(cls.__dict__[meth], name, counters))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, counters)
            if binders is None:
                binders = [m for m in list(sys.modules)
                           if m == "cechmv" or m.startswith("cechmv.")]
            patched = 0
            for modname2 in binders:
                mod = sys.modules[modname2]
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)
                    patched += 1
            if not patched:
                raise RuntimeError(f"no binding of {modname}.{attr} found")

    def _patch(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counters": self.counters}, fh)


class SpanTree:
    """Inclusive and self times over recorded spans (times in seconds)."""

    def __init__(self, names: list[str], spans: list):
        self.name = [names[s[0]] for s in spans]
        self.dur = [(s[2] - s[1]) * 1e-9 for s in spans]
        self.parent = [s[3] for s in spans]
        self.children: list[list[int]] = [[] for _ in spans]
        for i, p in enumerate(self.parent):
            if p >= 0:
                self.children[p].append(i)
        self.self_time = [
            d - sum(self.dur[c] for c in kids) for d, kids in zip(self.dur, self.children)
        ]

    def roots(self) -> list[int]:
        return [i for i, p in enumerate(self.parent) if p < 0]

    def count(self, names) -> int:
        names = set(names)
        return sum(1 for n in self.name if n in names)

    def self_sum(self, names) -> float:
        names = set(names)
        return sum(t for n, t in zip(self.name, self.self_time) if n in names)

    def layer_self(self, layer: str) -> float:
        return sum(t for n, t in zip(self.name, self.self_time) if n.split(".", 1)[0] == layer)

    def inclusive(self, names, exclude=()) -> float:
        """Time inside spans named in `names`, counting nested ones once, less
        the time inside spans named in `exclude` nested within them."""
        names, exclude = set(names), set(exclude)
        total = 0.0

        def walk(i: int, inside: bool) -> None:
            nonlocal total
            n = self.name[i]
            if inside and n in exclude:
                total -= self.dur[i]
                return
            if not inside and n in names:
                total += self.dur[i]
                inside = True
            for c in self.children[i]:
                walk(c, inside)

        for r in self.roots():
            walk(r, False)
        return total
