"""Layer tracing from outside the package.

Every target below is a public function (or method) of one ``latroids``
module.  Installing the tracer replaces the target by a wrapper in *every*
``latroids.*`` module namespace that holds it, because the package imports
by name (``from .core import validate_latroid``): rebinding only the
defining module would miss most calls.  Methods are replaced on their
class.

A span wrapper records (name, start, end, parent) for each call.  A layer's
time is the self time of its spans (span minus child spans), except for the
groups listed in INCLUSIVE, whose work is the nested call they make (for
example ``lattices.dual`` rebuilds the lattice, which is also counted in
``lattices.build``).  Count wrappers only count calls; the ``check_cap``
hook records each cap check against its cap and opens no span.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

from workloads import WORKLOADS as ALL

# Groups reported as inclusive time rather than self time.
INCLUSIVE = ("lattices.dual", "lattices.interval")

# check_cap "what" strings that enumerate or materialize R^n (or F_q^n).
VECTOR_CHECKS = (
    "materializing a code in",
    "enumerating ",
    "isometry verification",
    "support table domain",
    "support validation",
    "modularity validation",
)


@dataclass(frozen=True)
class Target:
    """``attr`` of ``latroids.<module>`` wrapped into metric ``group``.

    ``workloads`` are the workloads on which the wrapper must see at least
    one call; a traced pass of such a workload fails otherwise.
    """

    module: str
    attr: str
    group: str
    workloads: tuple[str, ...]
    kind: str = "span"  # "span", "count" or "cap"
    hook: str = ""  # name of a Tracer method run on (args, result)
    flatten: bool = False  # recursive calls stay inside the outer span

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _targets():
    T = Target
    GRID, AX, ST, CLI = "grid-latroids", "axiom-systems", "selftest", "cli-small"
    out = [
        T("lattices", "FiniteLattice.__init__", "lattices.build", ALL, hook="on_lattice"),
        T("lattices", "build_lattice", "lattices.leq_matrix", (GRID, AX)),
        T("lattices", "dual", "lattices.dual", (ST,)),
        T("lattices", "interval", "lattices.interval", (ST,)),
        T("lattices", "is_modular_lattice", "lattices.predicates", (AX,)),
        T("lattices", "is_complemented_lattice", "lattices.predicates", (AX,)),
        T("core", "validate_latroid", "core.validate_latroid", (GRID, AX), hook="on_validate"),
        T("core", "dual_latroid", "core.dual_latroid", (ST,)),
        T("code_latroids", "chain_support_latroid", "code_latroids.construct", (GRID,), hook="on_build"),
        T("code_latroids", "block_matroid", "code_latroids.construct", (AX,), hook="on_build"),
        T("code_latroids", "latroid_from_code", "code_latroids.construct", (AX,), hook="on_build"),
        T("code_latroids", "rect_supp_latroid", "code_latroids.construct", (ST,), hook="on_build"),
        T("codes", "span", "codes.span", ALL, hook="on_span"),
        T("codes", "enumerate_submodules", "codes.enumerate_submodules", (AX,), hook="on_submodules"),
        T("supports", "validate_support", "supports.validate", (ST,), hook="on_support"),
        T("supports", "validate_modular", "supports.validate", (ST,), hook="on_support"),
        T("rings", "Pir.add", "rings.add", (ST,), kind="count"),
        T("rings", "Pir.vadd", "rings.vadd", (ST,), kind="count"),
        T("isometries", "is_isometry", "isometries.is_isometry", (ST,)),
        T("isometries", "decompose_chain_isometry", "isometries.decompose", (ST,)),
        T("isometries", "pir_isometry_projections", "isometries.decompose", (ST,)),
        T("enumerators", "tutte_whitney_Rprime", "enumerators.rprime", (GRID,), hook="on_rprime"),
        T("enumerators", "enumerator_from_tutte", "enumerators.from_rprime", (GRID,)),
        T("enumerators", "refined_enumerator", "enumerators.refined", (GRID,)),
        T("cli", "parse_config", "cli.parse", (CLI,)),
        T("cli", "load_problem", "cli.parse", (CLI,)),
        T("cli", "jsonable", "cli.emit", (CLI,), flatten=True),
        T("cli", "_emit", "cli.emit", (CLI,)),
        T("limits", "check_cap", "limits.check_cap", ALL, kind="cap"),
    ]
    for name in ("axioms_I", "axioms_B", "axioms_C"):
        out.append(T("core", name, "core.axioms", (AX,)))
    for name in ("rank_from_independents", "rank_from_bases", "rank_from_circuits"):
        out.append(T("core", name, "core.rank_from", (AX,)))
    for name in ("independents", "bases", "circuits"):
        out.append(T("core", name, "core.derived_sets", (AX,)))
    for name in ("code_gen_weights_dbar", "code_gen_weights_dr", "latroid_gen_weights"):
        out.append(T("code_latroids", name, "code_latroids.weights", (GRID,)))
    return tuple(out)


TARGETS = _targets()


class OpRecord:
    """Per-operation waste and cap headroom."""

    def __init__(self, key: str):
        self.key = key
        self.seen = {"build": set(), "rprime": set(), "validate": set()}
        self.attempted = Counter()
        self.peak = {"lattice": 0, "submodule": 0, "vector": 0}
        self.useful = Counter()

    def close(self) -> None:
        """Keep the number of distinct inputs, drop the inputs."""
        self.useful.update({k: len(v) for k, v in self.seen.items()})
        self.seen = None

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "attempted": dict(self.attempted),
            "useful": dict(self.useful),
            "peak": self.peak,
        }


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.stack = []  # [span index, name, parent, start, child time]
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.ops = []
        self.op = None
        self._installed = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append(None)
        self.stack.append([len(self.spans) - 1, name, parent, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        idx, name, parent, start, child = self.stack.pop()
        dur = end - start
        self.spans[idx] = (name, start, end, parent)
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][4] += dur

    def begin_op(self, key: str) -> None:
        self.op = OpRecord(key)

    def end_op(self) -> None:
        self.op.close()
        self.ops.append(self.op)
        self.op = None

    # -- hooks ---------------------------------------------------------------

    def _waste(self, kind: str, latroid) -> None:
        if self.op is not None:
            self.op.attempted[kind] += 1
            self.op.seen[kind].add(latroid)

    def on_lattice(self, args, result):
        n = args[0].size
        self.counts["lattices.elements"] += n
        self.counts["lattices.pairs"] += n * n

    def on_validate(self, args, result):
        self.counts["core.validate_latroid_pairs"] += args[0].lattice.size ** 2
        self._waste("validate", args[0])

    def on_build(self, args, result):
        self._waste("build", result)

    def on_rprime(self, args, result):
        self._waste("rprime", args[0])

    def on_span(self, args, result):
        self.counts["codes.codewords"] += len(result)

    def on_submodules(self, args, result):
        self.counts["codes.submodules"] += len(result)

    def on_support(self, args, result):
        s = args[0]
        self.counts["supports.ambient_vectors"] += s.ring.size**s.n

    def on_cap(self, actual: int, what: str) -> None:
        op = self.op
        if op is None:
            return
        if what == "lattice size":
            kind = "lattice"
        elif what == "submodule enumeration":
            kind = "submodule"
        elif what.startswith(VECTOR_CHECKS):
            kind = "vector"
        else:
            return
        op.peak[kind] = max(op.peak[kind], actual)

    # -- wrappers --------------------------------------------------------------

    def wrap(self, target: Target, fn):
        name = target.name
        if target.kind == "count":
            calls = self.calls

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)
        if target.kind == "cap":

            def capped(actual, limit, what):
                self.calls[name] += 1
                self.on_cap(actual, what)
                return fn(actual, limit, what)

            return functools.wraps(fn)(capped)

        hook = getattr(self, target.hook) if target.hook else None
        flatten = target.flatten
        stack = self.stack

        def spanned(*args, **kwargs):
            if flatten and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                hook(args, result)
            return result

        return functools.wraps(fn)(spanned)

    def install(self, targets=TARGETS) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "latroids" or n.startswith("latroids."))
        ]
        for t in targets:
            owner = sys.modules[f"latroids.{t.module}"]
            *path, attr = t.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(t, original)
            if path:
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def unseen(self, workload: str, targets=TARGETS) -> list[str]:
        """Wrappers that saw no call on a workload that must reach them."""
        return [t.name for t in targets if workload in t.workloads and not self.calls[t.name]]

    def layer_metrics(self, limits, targets=TARGETS) -> dict:
        """Per-pass layer metrics: times in s, counts, ratios."""
        group_time = defaultdict(float)
        group_calls = Counter()
        for t in targets:
            if t.kind != "span":
                continue
            times = self.incl_s if t.group in INCLUSIVE else self.self_s
            group_time[t.group] += times[t.name]
            group_calls[t.group] += self.calls[t.name]
        for name, total in self.incl_s.items():
            if name.startswith("selftest."):
                group_time[name] += total
        ops = max(len(self.ops), 1)
        out = {f"{g}_s": v for g, v in group_time.items()}
        out.update(self.counts)
        out["lattices.builds"] = group_calls["lattices.build"]
        out["core.validate_latroid_calls"] = group_calls["core.validate_latroid"]
        out["code_latroids.builds_per_op"] = group_calls["code_latroids.construct"] / ops
        out["enumerators.rprime_per_op"] = group_calls["enumerators.rprime"] / ops
        out["rings.add_calls"] = self.calls["rings.Pir.add"]
        out["rings.vadd_calls"] = self.calls["rings.Pir.vadd"]
        for kind, metric in (("build", "latroid_builds"), ("rprime", "rprime"), ("validate", "validate")):
            attempted = sum(op.attempted[kind] for op in self.ops)
            useful = sum(op.useful[kind] for op in self.ops)
            out[f"waste.{metric}_useful"] = useful / attempted if attempted else 1.0
        for kind, cap in (
            ("lattice", limits.LATTICE_CAP),
            ("submodule", limits.SUBMODULE_CAP),
            ("vector", limits.VECTOR_ENUM_CAP),
        ):
            peak = max((op.peak[kind] for op in self.ops), default=0)
            out[f"limits.{kind}_headroom"] = (cap - peak) / cap
        return out

    def dump(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
            "ops": [op.to_json() for op in self.ops],
        }
