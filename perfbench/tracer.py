"""Spans and counts recorded around calls into the library, from outside it.

:func:`install` rebinds each function in :data:`TARGETS`, in every loaded
``nodalcodes`` module that holds it (for example ``nodalcodes.classify``'s
``canonical_form``), to a wrapper that records a span: name, start, end,
parent span and task.  A class is traced through its ``__init__``.  Spans
stay in memory until the worker ends.  Self time is a span's duration
minus the durations of its child spans.

After :data:`SPAN_CAP` records of one name, further calls of that name
are rolled up per (name, parent, task) into a call count and total and
self nanoseconds, which bounds memory for functions called millions of
times.  ``fields`` has no targets: its per-scalar calls are too fine to
wrap, so its cost shows in the self time of ``linalg`` and ``nodes``.
"""

from __future__ import annotations

import sys
import time

SPAN_CAP = 20000


def _rank_note(args, kwargs, result):
    m = args[0]
    tag = "q" if m.field.characteristic == 0 else "fp"
    return tag, {f"linalg.matrix_entries.{tag}": m.nrows * m.ncols}


def _scan_note(args, kwargs, result):
    p = args[0].prime
    return f"p{p}", {
        "symmetroid.projective_points": p**3 + p**2 + p + 1,
        "symmetroid.points_found": len(result.points),
    }


def _certificate_note(args, kwargs, result):
    return "", {"symmetroid.certified": int(result.certified)}


def _classify_note(args, kwargs, result):
    mu = args[0] if args else kwargs["mu"]
    return f"mu{mu}", {"classify.classes": len(result.entries)}


def _words_note(args, kwargs, result):
    return "", {"classify.admissible_words_ext.count": len(result)}


# (module, attribute, span name, note): a note maps (args, kwargs, result)
# to a span-name suffix and counts to add
TARGETS = (
    ("nodalcodes.classify", "classify_quartic_codes", "classify.classify_quartic_codes", _classify_note),
    ("nodalcodes.classify", "admissible_words_ext", "classify.admissible_words_ext", _words_note),
    ("nodalcodes.codes", "apply_node_permutation", "codes.apply_node_permutation", None),
    ("nodalcodes.codes", "column_transpositions", "codes.column_transpositions", None),
    ("nodalcodes.codes", "canonical_form", "codes.canonical_form", None),
    ("nodalcodes.codes", "is_isomorphic", "codes.is_isomorphic", None),
    ("nodalcodes.codes", "weight_enumerator", "codes.weight_enumerator", None),
    ("nodalcodes.linalg", "bit_rref", "linalg.bit_rref", None),
    ("nodalcodes.linalg", "rank_and_rref", "linalg.rank_and_rref", _rank_note),
    ("nodalcodes.linalg", "exact_rank", "linalg.exact_rank", None),
    ("nodalcodes.linalg", "modular_rank", "linalg.modular_rank", None),
    ("nodalcodes.linalg", "nullspace_basis", "linalg.nullspace_basis", None),
    ("nodalcodes.nodes", "NodeConfiguration", "nodes.NodeConfiguration", None),
    ("nodalcodes.nodes", "evaluation_matrix", "nodes.evaluation_matrix", None),
    ("nodalcodes.nodes", "vanishing_dimension", "nodes.vanishing_dimension", None),
    ("nodalcodes.nodes", "defect_from_nodes", "nodes.defect_from_nodes", None),
    ("nodalcodes.symmetroid", "scan_nodes_fp", "symmetroid.scan_nodes_fp", _scan_note),
    ("nodalcodes.symmetroid", "no_quadric_certificate", "symmetroid.no_quadric_certificate", _certificate_note),
    ("nodalcodes.series", "symmetroid_hilbert_series", "series.symmetroid_hilbert_series", None),
    ("nodalcodes.bounds", "bound_report", "bounds.bound_report", None),
)


class Tracer:
    """In-memory span and count recorder for one worker process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, task, self_ns)
        self.rollups: dict[tuple, list[int]] = {}  # (name, parent, task) -> [calls, ns, self_ns]
        self.counts: dict[str, int] = {}
        self.task: int | None = None
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._recorded: dict[str, int] = {}
        self._next_id = 1

    def wrap(self, name: str, fn, note=None):
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            full = name
            if note is not None:
                suffix, counts = note(args, kwargs, result)
                full = f"{name}.{suffix}" if suffix else name
                for key, n in counts.items():
                    self.counts[key] = self.counts.get(key, 0) + n
            self._record(full, span_id, start, end, parent, end - start - frame[1])
            return result

        return traced

    def _record(self, name, span_id, start, end, parent, self_ns):
        seen = self._recorded.get(name, 0)
        if seen < SPAN_CAP:
            self._recorded[name] = seen + 1
            self.spans.append((span_id, name, start, end, parent, self.task, self_ns))
            return
        acc = self.rollups.setdefault((name, parent, self.task), [0, 0, 0])
        acc[0] += 1
        acc[1] += end - start
        acc[2] += self_ns

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "rollups": [[*key, *val] for key, val in self.rollups.items()],
            "counts": self.counts,
        }


def install(tracer: Tracer) -> None:
    """Rebind every target that a loaded ``nodalcodes`` module holds.

    Modules not yet imported are left alone, so tracing imports nothing
    the workload would not.
    """
    loaded = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "nodalcodes" or name.startswith("nodalcodes."))
    ]
    for module_name, attr, span_name, note in TARGETS:
        module = sys.modules.get(module_name)
        if module is None or not hasattr(module, attr):
            continue
        original = getattr(module, attr)
        if isinstance(original, type):
            original.__init__ = tracer.wrap(span_name, original.__init__, note)
        else:
            wrapped = tracer.wrap(span_name, original, note)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)


def summarize(trace: dict, scale=lambda task: 1.0) -> dict:
    """Per span name: calls, total seconds and self seconds, each span's
    time multiplied by ``scale(task)``."""
    out: dict[str, list[float]] = {}
    for _id, name, start, end, _parent, task, self_ns in trace["spans"]:
        k = scale(task) / 1e9
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) * k
        acc[2] += self_ns * k
    for name, _parent, task, calls, ns, self_ns in trace["rollups"]:
        k = scale(task) / 1e9
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += ns * k
        acc[2] += self_ns * k
    return {name: {"calls": c, "s": s, "self_s": ss} for name, (c, s, ss) in out.items()}
