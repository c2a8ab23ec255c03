"""Spans and counters around the calls into each twinefold layer.

``Tracer.install`` replaces the listed functions with timing wrappers at
every module binding that refers to them (``from .linalg import mat_mul`` in
``alcove`` is a separate binding from ``linalg.mat_mul``), so the program is
traced without editing it.  Spans are kept in memory as
``[name, start, end, parent]`` and written out by ``write``.  A span's self
time is its duration minus the durations of its child spans; in a single
thread the children are disjoint and lie inside the parent.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("linalg", "rootcore", "folding", "twining", "alcove", "fusion", "cli")

FUNCTIONS = {
    "linalg": ("mat_mul", "mat_det", "smith_normal_form", "solve"),
    "rootcore": (
        "build_root_datum",
        "irreducible_character",
        "freudenthal_multiplicities",
        "decompose_into_irreducibles",
    ),
    "folding": ("fold",),
    "twining": (
        "twining_character",
        "jantzen_eval",
        "adjoint_oracle",
        "weyl_denominator",
        "inner_product",
    ),
    "alcove": ("fold_to_alcove", "fundamental_alcove", "stabilizer_datum"),
    "fusion": (
        "fusion_table",
        "level_data",
        "ring_product",
        "verlinde_coefficient",
        "phi_project",
    ),
    "cli": ("main",),
}
METHODS = {("rootcore", "FourierPolynomial"): ("evaluate", "__mul__")}
# generators: one span per element drawn, so consumers' time is not counted
GENERATORS = {"rootcore": ("weyl_traverse",)}

SPAN_NAMES = (
    [f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs]
    + [f"{m}.{c}.{f}" for (m, c), fs in METHODS.items() for f in fs]
    + [f"{m}.{f}" for m, fs in GENERATORS.items() for f in fs]
)

# (metric, unit, better); every name below is printed on every traced run
PER_LAYER = (
    [(f"{n}.calls", "count", "lower") for n in SPAN_NAMES]
    + [(f"{n}.s", "s", "lower") for n in SPAN_NAMES]
    + [
        ("rootcore.weyl_traverse.elements", "count", "lower"),
        ("rootcore.FourierPolynomial.evaluate.terms", "count", "lower"),
        ("rootcore.FourierPolynomial.evaluate.useful_ratio", "ratio", "higher"),
        ("rootcore.irreducible_character.useful_ratio", "ratio", "higher"),
        ("rootcore.FourierPolynomial.__mul__.term_products", "count", "lower"),
        ("twining.weyl_denominator.terms", "count", "lower"),
    ]
    + [(f"{m}.self_s", "s", "lower") for m in MODULES]
    + [
        ("cli.main.self_s", "s", "lower"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        # (name -> keys seen) within the current root span; objects in the
        # keys are pinned so their ids are not reused before the span ends
        self.seen: dict[str, set] = defaultdict(set)
        self.pinned: list = []
        self.distinct: dict[str, int] = defaultdict(int)

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def root(self, name: str, fn):
        """Run ``fn`` as a root span; its layer spans share it as ancestor."""
        index = self._open(name)
        try:
            return fn()
        finally:
            self._close(index)
            for key, keys in self.seen.items():
                self.distinct[key] += len(keys)
            self.seen.clear()
            self.pinned.clear()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count:
                count(self, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            inner = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                self.counts[name + ".elements"] += 1
                yield item

        return traced

    def install(self) -> None:
        mods = {m: sys.modules[f"twinefold.{m}"] for m in MODULES}
        bindings = [sys.modules["twinefold"], *mods.values()]
        for table, wrap in ((FUNCTIONS, self._wrap), (GENERATORS, self._wrap_generator)):
            for m, names in table.items():
                for f in names:
                    original = getattr(mods[m], f)
                    traced = wrap(f"{m}.{f}", original)
                    for module in bindings:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, traced)
        for (m, cls_name), names in METHODS.items():
            cls = getattr(mods[m], cls_name)
            for f in names:
                setattr(cls, f, self._wrap(f"{m}.{cls_name}.{f}", getattr(cls, f)))

    def note_distinct(self, name: str, key, *pin) -> None:
        self.seen[name].add(key)
        self.pinned.extend(pin)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[i]

        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.counts[f"{name}.calls"]
            out[f"{name}.s"] = total[name]
        for key in (
            "rootcore.weyl_traverse.elements",
            "rootcore.FourierPolynomial.evaluate.terms",
            "rootcore.FourierPolynomial.__mul__.term_products",
            "twining.weyl_denominator.terms",
        ):
            out[key] = self.counts[key]
        for name in ("rootcore.FourierPolynomial.evaluate", "rootcore.irreducible_character"):
            calls = self.counts[f"{name}.calls"]
            # distinct (object, argument) pairs per call; 0 when never called
            out[f"{name}.useful_ratio"] = self.distinct[name] / calls if calls else 0.0
        for m in MODULES:
            out[f"{m}.self_s"] = sum(
                (s for name, s in self_time.items() if name.split(".", 1)[0] == m), 0.0
            )
        out["cli.main.self_s"] = self_time["cli.main"]
        return out

    def write(self, path: str, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    **extra,
                    "span_fields": ["name", "start_s", "end_s", "parent"],
                    "span_names": names,
                    "spans": [
                        [index[n], round(s - t0, 7), round(e - t0, 7), p]
                        for n, s, e, p in self.spans
                    ],
                },
                fh,
            )


def _count_evaluate(tracer, args, result):
    poly, _, xi = args
    tracer.counts["rootcore.FourierPolynomial.evaluate.terms"] += len(poly.terms)
    tracer.note_distinct("rootcore.FourierPolynomial.evaluate", (id(poly), xi), poly)


def _count_mul(tracer, args, result):
    a, b = args
    tracer.counts["rootcore.FourierPolynomial.__mul__.term_products"] += len(a.terms) * len(
        b.terms
    )


def _count_weyl_denominator(tracer, args, result):
    tracer.counts["twining.weyl_denominator.terms"] += len(result.poly.terms)


def _count_irreducible(tracer, args, result):
    datum, lam = args
    tracer.note_distinct("rootcore.irreducible_character", (id(datum), lam), datum)


COUNTERS = {
    "rootcore.FourierPolynomial.evaluate": _count_evaluate,
    "rootcore.FourierPolynomial.__mul__": _count_mul,
    "twining.weyl_denominator": _count_weyl_denominator,
    "rootcore.irreducible_character": _count_irreducible,
}
