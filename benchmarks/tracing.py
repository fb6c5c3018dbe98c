"""Spans and counts recorded around calls into entlap's modules, from outside.

`Tracer.install` replaces each target function with a timing wrapper in every
entlap module that binds that function object, so a call is seen where the
calling module looks it up (for example `entlap.criteria.max_w`).  It also
counts constructions of `entlap.exact.Exact`.  `Tracer.uninstall` puts every
original back, so untraced runs execute unmodified code.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) pairs timed as spans.
SPAN_TARGETS = (
    ("states", "validate"),
    ("laplacian", "laplacian_of_density"),
    ("matops", "partial_transpose"),
    ("matops", "eigvals_sym"),
    ("matops", "determinant"),
    ("wgraph", "graph_from_laplacian"),
    ("wgraph", "is_connected"),
    ("wgraph", "max_w"),
    ("criteria", "ppt_oracle"),
    ("criteria", "purity_test"),
    ("criteria", "thm3_separability"),
    ("criteria", "thm5_ppt"),
    ("criteria", "thm6_ppt"),
    ("criteria", "thm3a_bounds"),
    ("criteria", "thm3b_check"),
    ("criteria", "thm4a_check"),
    ("criteria", "cor4a_nptes"),
    ("criteria", "cor6_ppt"),
    ("criteria", "classify"),
    ("corpus", "build"),
    ("matrixfile", "parse"),
    ("matrixfile", "emit"),
    ("cli", "main"),
)
EXACT_CREATED = "exact.Exact.created"
OP_SPAN = "bench.op"

# A span is [name, start_ns, end_ns, parent index or None, op index,
# Exact constructions before the span, Exact constructions after it].
NAME, START, END, PARENT, OP, CREATED0, CREATED1 = range(7)


def _entlap_modules() -> dict[str, object]:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "entlap" or name.startswith("entlap."))}


class Tracer:
    """In-memory spans for one traced phase; written out by `write` at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[str] = []  # op labels, by op index
        self.created = 0
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._op, self.created, 0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter_ns()
        span[CREATED1] = self.created
        self._stack.pop()

    @contextmanager
    def op(self, label: str):
        """Root span of one benchmark op; spans of the op share its index."""
        self._op = len(self.ops)
        self.ops.append(label)
        idx = self._enter(OP_SPAN)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = _entlap_modules()
        try:
            for mod_name, func in SPAN_TARGETS:
                original = getattr(modules[f"entlap.{mod_name}"], func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for mod in modules.values():
                    if vars(mod).get(func) is original:
                        self._restore.append((mod, func, original))
                        setattr(mod, func, wrapper)
            exact_cls = modules["entlap.exact"].Exact
            original_init = exact_cls.__dict__["__init__"]

            def counting_init(obj, *args, **kwargs):
                self.created += 1
                original_init(obj, *args, **kwargs)

            self._restore.append((exact_cls, "__init__", original_init))
            exact_cls.__init__ = counting_init
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        names = sorted({s[NAME] for s in self.spans})
        ids = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start_ns", "end_ns", "parent", "op", "exact_created"],\n')
            fh.write(f' "names": {json.dumps(names)},\n')
            fh.write(f' "ops": {json.dumps(self.ops)},\n "spans": [\n')
            fh.write(",\n".join(
                json.dumps([ids[s[NAME]], s[START] - t0, s[END] - t0, s[PARENT], s[OP],
                            s[CREATED1] - s[CREATED0]])
                for s in self.spans))
            fh.write("\n]}\n")


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - covered_ns(children.get(i, ()), s[START], s[END])
            for i, s in enumerate(spans)]


def aggregate(tracer: Tracer):
    """Totals per span name, and per-op counts for each op label.

    totals[name] = {"calls", "self_ns", "created"}, where "created" counts the
    Exact constructions inside the span, its children included.
    by_label[label] = {"ops": k, name: calls, name + ".created": constructions}.
    """
    totals = defaultdict(lambda: {"calls": 0, "self_ns": 0, "created": 0})
    by_label = defaultdict(lambda: defaultdict(int))
    for s, self_ns in zip(tracer.spans, self_times_ns(tracer.spans)):
        created = s[CREATED1] - s[CREATED0]
        total = totals[s[NAME]]
        total["calls"] += 1
        total["self_ns"] += self_ns
        total["created"] += created
        row = by_label[tracer.ops[s[OP]]]
        row["ops" if s[NAME] == OP_SPAN else s[NAME]] += 1
        row[s[NAME] + ".created"] += created
    return dict(totals), {k: dict(v) for k, v in by_label.items()}
