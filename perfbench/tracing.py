"""Outside-in span recorder for the hlmod benchmark.

The recorder wraps public functions and methods of the ``hlmod`` modules
from the outside: nothing under ``src/`` knows it exists.  Every call
becomes a span (name, start, end, parent) kept in memory; per-layer
metrics are derived from the spans after the run, and the spans can be
written out as JSON lines.

A function imported by name into another module (``from .mixed import
cone_membership``) lives in that module's namespace as a separate binding,
so each function is replaced in *every* ``hlmod`` namespace that holds it.
Methods are replaced on their class.  ``hlmod.descent`` resolves to the
``descent`` function re-exported by the package, so modules are reached
through ``importlib.import_module`` rather than attribute access.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from contextlib import contextmanager

# (metric prefix, module, attribute); "Class.method" attributes are methods.
TRACED = (
    ("exact.rref", "hlmod.exact", "Matrix.rref"),
    ("exact.det", "hlmod.exact", "Matrix.det"),
    ("exact.matmul", "hlmod.exact", "Matrix.__mul__"),
    ("exact.kernel_basis", "hlmod.exact", "kernel_basis"),
    ("exact.poly_det", "hlmod.exact", "poly_det"),
    ("exact.apply_diff_op", "hlmod.exact", "apply_diff_op"),
    ("hodge_lefschetz.combine", "hlmod.hodge_lefschetz", "OperatorFamily.combine"),
    ("hodge_lefschetz.product_block", "hlmod.hodge_lefschetz", "product_block"),
    ("hodge_lefschetz.lefschetz_property", "hlmod.hodge_lefschetz", "lefschetz_property"),
    ("hodge_lefschetz.polarization_check", "hlmod.hodge_lefschetz", "polarization_check"),
    ("hodge_lefschetz.cone_membership", "hlmod.hodge_lefschetz", "cone_membership"),
    ("hodge_lefschetz.sample_cone_element", "hlmod.hodge_lefschetz", "sample_cone_element"),
    ("hodge_lefschetz.validate_structure", "hlmod.hodge_lefschetz", "validate_structure"),
    ("hodge_lefschetz.sl2_complete", "hlmod.hodge_lefschetz", "sl2_complete"),
    ("hodge_lefschetz.lefschetz_decomposition", "hlmod.hodge_lefschetz", "lefschetz_decomposition"),
    ("mixed.mixed_hlt_check", "hlmod.mixed", "mixed_hlt_check"),
    ("mixed.kernel_weight_bound", "hlmod.mixed", "kernel_weight_bound"),
    ("mixed.mixed_decomposition_check", "hlmod.mixed", "mixed_decomposition_check"),
    ("mixed.mixed_hrr_check", "hlmod.mixed", "mixed_hrr_check"),
    ("descent.descent", "hlmod.descent", "descent"),
    ("descent.koszul_complex", "hlmod.descent", "koszul_complex"),
    ("descent.purity_check", "hlmod.descent", "purity_check"),
    ("polytopes.volume_polynomial", "hlmod.polytopes", "volume_polynomial"),
    ("polytopes.volume_oracle", "hlmod.polytopes", "volume_oracle"),
    ("polytopes.build_pkt_module", "hlmod.polytopes", "build_pkt_module"),
    ("polytopes.af_check", "hlmod.polytopes", "af_check"),
    ("polytopes.h_vector", "hlmod.polytopes", "h_vector"),
    ("torus.build_torus_module", "hlmod.torus", "build_torus_module"),
    ("serialization.polytope_from_json", "hlmod.serialization", "polytope_from_json"),
    ("serialization.module_to_json", "hlmod.serialization", "module_to_json"),
    ("serialization.module_from_json", "hlmod.serialization", "module_from_json"),
    ("report.to_json", "hlmod.report", "CheckReport.to_json"),
)

# The benchmark opens one span of this name around each CLI command.
COMMAND = "cli.main"
SPAN_NAMES = tuple(name for name, _, _ in TRACED) + (COMMAND,)

# Spans that make up building a polytope module (parse, volume, module).
BUILD_SPANS = (
    "serialization.polytope_from_json",
    "polytopes.volume_polynomial",
    "polytopes.build_pkt_module",
)


def _bits(x) -> int:
    """Largest numerator or denominator bit-length of a Q or Q(i) scalar."""
    return max(
        max(abs(part.numerator).bit_length(), part.denominator.bit_length())
        for part in (x.real, x.imag)
    )


@contextmanager
def patched(wrap):
    """Replace every traced callable by ``wrap(name, fn)`` in the block, then restore.

    Functions are replaced in every ``hlmod`` namespace that holds them,
    methods on their class.
    """
    undo = []
    for module_name in ("hlmod.cli", *(m for _, m, _ in TRACED)):
        importlib.import_module(module_name)
    namespaces = [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "hlmod" or key.startswith("hlmod."))
    ]
    try:
        for name, module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, wrap(name, original))
                undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        undo.append((ns, key, original))
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


class Tracer:
    """Records spans and exact counters while installed."""

    def __init__(self):
        # span i is [name index, start, end, parent index or -1, outermost],
        # where outermost means no enclosing span has the same name
        self.spans: list[list] = []
        self.labels: dict[int, str] = {}
        self._stack: list[int] = []
        self._open_by_name = [0] * len(SPAN_NAMES)
        self.rref_rows = self.rref_cols = 0
        self.det_n = self.det_bits = 0
        self.sampler_draws: dict[int, int] = {}
        self.sampler_accepts: dict[int, int] = {}

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outermost = not self._open_by_name[name_id]
        self._open_by_name[name_id] += 1
        self._stack.append(idx)
        self.spans.append([name_id, time.perf_counter(), 0.0, parent, outermost])
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._open_by_name[span[0]] -= 1
        self._stack.pop()

    @contextmanager
    def command(self, label: str):
        """One span around a CLI command, tagged with the input it reads."""
        idx = self._open(len(SPAN_NAMES) - 1)
        self.labels[idx] = label
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        name_id = SPAN_NAMES.index(name)
        observe = {
            "exact.rref": self._observe_rref,
            "exact.det": self._observe_det,
            "hodge_lefschetz.cone_membership": self._observe_membership,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(idx, args, result)
            return result

        return wrapper

    def _observe_rref(self, idx, args, result) -> None:
        m = args[0]
        self.rref_rows = max(self.rref_rows, m.rows)
        self.rref_cols = max(self.rref_cols, m.cols)

    def _observe_det(self, idx, args, result) -> None:
        self.det_n = max(self.det_n, args[0].rows)
        self.det_bits = max(self.det_bits, _bits(result))

    def _observe_membership(self, idx, args, result) -> None:
        parent = self.spans[idx][3]
        if parent >= 0 and SPAN_NAMES[self.spans[parent][0]] == "hodge_lefschetz.sample_cone_element":
            self.sampler_draws[parent] = self.sampler_draws.get(parent, 0) + 1
            if result:
                self.sampler_accepts[parent] = self.sampler_accepts.get(parent, 0) + 1

    def installed(self):
        """Record spans of every traced callable while the block runs."""
        return patched(self._wrap)

    # -- derived metrics -------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """calls, total_s and self_s per span name, plus the exact counters.

        total_s counts only outermost calls of a name, so recursion is not
        counted twice; self_s is a span's duration minus its children's.
        """
        n = len(SPAN_NAMES)
        calls = [0] * n
        total = [0.0] * n
        self_time = [0.0] * n
        child_time = [0.0] * len(self.spans)
        # spans are stored in start order, so walking backwards reaches
        # every child before its parent
        for i in range(len(self.spans) - 1, -1, -1):
            name_id, start, end, parent, outermost = self.spans[i]
            duration = end - start
            calls[name_id] += 1
            if outermost:
                total[name_id] += duration
            self_time[name_id] += duration - child_time[i]
            if parent >= 0:
                child_time[parent] += duration
        out: dict[str, float] = {}
        for k, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.total_s"] = total[k]
            out[f"{name}.self_s"] = self_time[k]
        out.update({
            "exact.rref.max_rows": self.rref_rows,
            "exact.rref.max_cols": self.rref_cols,
            "exact.det.max_n": self.det_n,
            "exact.det.max_bits": self.det_bits,
        })
        return out

    def sampler(self) -> dict[str, float]:
        """Draws, accepted share and fallbacks of the sampler calls recorded.

        A draw is a ``cone_membership`` call made by ``sample_cone_element``;
        a call whose every draw was rejected returned the reference.
        """
        draws = sum(self.sampler_draws.values())
        accepts = sum(self.sampler_accepts.values())
        return {
            "hodge_lefschetz.sampler.draws": draws,
            "hodge_lefschetz.sampler.accept_ratio": accepts / draws,
            "hodge_lefschetz.sampler.fallbacks": sum(
                1 for i in self.sampler_draws if not self.sampler_accepts.get(i)
            ),
        }

    def check(self) -> list[str]:
        """What is wrong with the recorded spans, at most five items.

        Every span must be closed, end no earlier than it starts, lie inside
        its parent, and have a command span at its root.
        """
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans still open")
        command_id = len(SPAN_NAMES) - 1
        for i, (name_id, start, end, parent, _) in enumerate(self.spans):
            name = SPAN_NAMES[name_id]
            if end < start:
                problems.append(f"span {i} ({name}) ends before it starts")
            elif parent < 0:
                if name_id != command_id:
                    problems.append(f"span {i} ({name}) lies outside every command")
            elif not self.spans[parent][1] <= start <= end <= self.spans[parent][2]:
                problems.append(f"span {i} ({name}) is not inside its parent")
        return problems[:5]

    def covered_by_command(self, names) -> dict[str, float]:
        """Time under each command label covered by outermost spans in ``names``."""
        wanted = {SPAN_NAMES.index(n) for n in names}
        out = {label: 0.0 for label in self.labels.values()}
        for name_id, start, end, parent, _ in self.spans:
            if name_id not in wanted:
                continue
            p, nested = parent, False
            while p >= 0 and p not in self.labels:
                if self.spans[p][0] in wanted:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested and p >= 0:
                out[self.labels[p]] += end - start
        return out

    def command_wall(self) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.labels)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, start, end, parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name_id, start, end, parent, _ in self.spans:
                fh.write(json.dumps([SPAN_NAMES[name_id], start - t0, end - t0, parent]))
                fh.write("\n")
