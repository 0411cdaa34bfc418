"""Per-layer spans for the kickback package, recorded from outside.

The tracer wraps the public functions of the kickback modules at run time,
so the package source stays untouched and an untraced run executes no
wrapper at all. ``from .x import y`` copies the function object into every
importing module (``order_finding.inverse_qft``, ``cli.qft_transform``,
``algorithms.f_controlled_not``, ...), so each patch point is rebound under
every name that holds the original object in any ``kickback`` module.
``kickback.qft`` the attribute is the function and shadows the module, which
is therefore reached through ``sys.modules``.

A span is opened for every wrapped call made while the recorder is active.
Per span name the recorder keeps calls, total seconds, self seconds (span
minus the part covered by child spans) and amplitudes touched, plus the
calls and seconds of each direct child name.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

ALL = ("order-find", "wide-qft", "suite-small")
ORDER = ("order-find",)
WIDE = ("wide-qft",)
SUITE = ("suite-small",)

# The one table of patch points: module, attribute (``Class.method`` for
# methods), span name, and the workloads whose traced run must reach it.
PATCH_POINTS = (
    ("kickback.statevec", "StateVector.apply_single_qubit", "statevec.single", ALL),
    ("kickback.statevec", "StateVector.apply_controlled_single_qubit", "statevec.controlled", ALL),
    ("kickback.statevec", "StateVector.apply_permutation", "statevec.perm", ALL),
    ("kickback.statevec", "StateVector.marginal_probabilities", "statevec.marginal", ALL),
    ("kickback.statevec", "sample_index", "statevec.sample", ORDER + SUITE),
    ("kickback.statevec", "check_unitary", "statevec.check_unitary", ALL),
    ("kickback.gates", "Gate2x2.__init__", "gates.gate2x2", ALL),
    ("kickback.gates", "f_controlled_not", "gates.f_controlled_not", SUITE),
    ("kickback.gates", "controlled_modmult", "gates.controlled_modmult", ORDER),
    ("kickback.qft", "qft", "qft.qft", WIDE + SUITE),
    ("kickback.qft", "inverse_qft", "qft.inverse_qft", ALL),
    ("kickback.qft", "dft_reference", "qft.dft_reference", SUITE),
    ("kickback.phase_estimation", "kernel_state", "phase_estimation.kernel_state", ALL),
    ("kickback.phase_estimation", "control_distribution",
     "phase_estimation.control_distribution", WIDE),
    ("kickback.phase_estimation", "analytic_distribution",
     "phase_estimation.analytic_distribution", SUITE),
    ("kickback.phase_estimation", "estimate_phase", "phase_estimation.estimate_phase", SUITE),
    ("kickback.order_finding", "find_order", "order_finding.find_order", ORDER + SUITE),
    ("kickback.order_finding", "control_distribution",
     "order_finding.control_distribution", ORDER + SUITE),
    ("kickback.order_finding", "rsa_crack", "order_finding.rsa_crack", ORDER),
    ("kickback.algorithms", "grover_search", "algorithms.grover", SUITE),
    ("kickback.algorithms", "GroverOracle.as_oracle", "algorithms.grover_tag", SUITE),
    ("kickback.algorithms", "pattern_generate", "algorithms.pattern", SUITE),
    ("kickback.algorithms", "deutsch_jozsa", "algorithms.promise", SUITE),
    ("kickback.algorithms", "parity_promise", "algorithms.promise", SUITE),
    ("kickback.algorithms", "bernstein_vazirani", "algorithms.promise", SUITE),
    ("kickback.algorithms", "affine_recovery", "algorithms.promise", SUITE),
    ("kickback.analysis", "cross_minor_entanglement", "analysis.cross_minor", SUITE),
    ("kickback.analysis", "sweep_success_bound", "analysis.sweep", SUITE),
    ("kickback.analysis", "sweep_tail_bound", "analysis.sweep", SUITE),
    ("kickback.cli", "main", "cli.main", SUITE),
)

# Spans whose first argument is the StateVector they sweep once per call.
AMPLITUDE_SPANS = {"statevec.single", "statevec.controlled", "statevec.perm"}

NETWORK_SPANS = ("order_finding.control_distribution", "phase_estimation.control_distribution")


class Recorder:
    """Span statistics for one traced pass; records only while ``active``."""

    def __init__(self):
        self.active = False
        self.stack = []
        # name -> [completed calls, seconds, self seconds, amplitudes]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # (parent name, child name) -> [calls, seconds]
        self.children = defaultdict(lambda: [0, 0.0])
        self.point_calls = [0] * len(PATCH_POINTS)
        self.oracle_calls = 0
        self.bytes_out = 0
        self.errors = []
        self._grover_tags = weakref.WeakSet()
        self._restore = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every patch point; ``uninstall`` puts the originals back."""
        import kickback.cli  # noqa: F401  (the package does not import cli)

        modules = [m for n, m in sys.modules.items() if n == "kickback" or n.startswith("kickback.")]
        for index, (module, attr, name, _) in enumerate(PATCH_POINTS):
            # A patch point that no longer exists records no call, which
            # fails the traced run of every workload that must reach it.
            owner = sys.modules[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and method in vars(cls):
                    self._bind(cls, method, self._wrap(vars(cls)[method], name, index))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, index)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, alias, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def _bind(self, target, attr, wrapper) -> None:
        self._restore.append((target, attr, vars(target)[attr]))
        setattr(target, attr, wrapper)

    def _wrap(self, fn, name, index):
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            frame = rec._enter(name, index, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.stack.pop()
                raise
            rec._leave(frame, args, result)
            return result

        return wrapper

    # -- span accounting ------------------------------------------------

    def _enter(self, name, index, args):
        self.point_calls[index] += 1
        if name == "gates.f_controlled_not" and self._is_query(args[0]):
            self.oracle_calls += 1
        # [name, child seconds, child counts, start]
        frame = [name, 0.0, defaultdict(int), 0.0]
        self.stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def _leave(self, frame, args, result) -> None:
        seconds = time.perf_counter() - frame[3]
        self.stack.pop()
        name = frame[0]
        st = self.stats[name]
        st[0] += 1
        st[1] += seconds
        st[2] += seconds - frame[1]
        if name in AMPLITUDE_SPANS:
            st[3] += 1 << args[0].num_qubits
        elif name == "algorithms.grover_tag":
            self._grover_tags.add(result)
        elif name in ("qft.qft", "qft.inverse_qft"):
            self._check_qft(name, len(args[1]), frame[2])
        if self.stack:
            parent = self.stack[-1]
            parent[1] += seconds
            parent[2][name] += 1
            edge = self.children[(parent[0], name)]
            edge[0] += 1
            edge[1] += seconds

    def _is_query(self, oracle) -> bool:
        """Every f-controlled-NOT is a query except Grover's diffusion helper,
        the oracle grover_search builds itself instead of via as_oracle."""
        parent = self.stack[-1][0] if self.stack else None
        return parent != "algorithms.grover" or oracle in self._grover_tags

    def _check_qft(self, name, m, children) -> None:
        want = {"statevec.single": m, "statevec.controlled": m * (m - 1) // 2, "statevec.perm": m // 2}
        got = {k: children.get(k, 0) for k in want}
        if got != want:
            self.errors.append(f"{name} of width {m} made {got}, expected {want}")

    # -- results --------------------------------------------------------

    def counts(self) -> dict:
        """Every count the pass recorded; two passes over one job list must agree."""
        out = {f"{n}.calls": s[0] for n, s in self.stats.items()}
        out.update({f"{n}.amps": s[3] for n, s in self.stats.items()})
        out.update({f"{p}>{c}": e[0] for (p, c), e in self.children.items()})
        out.update({f"point{i}": c for i, c in enumerate(self.point_calls)})
        out["oracle_calls"] = self.oracle_calls
        out["bytes_out"] = self.bytes_out
        return out

    def unreached(self, workload: str) -> list[str]:
        """Patch points this workload must reach that recorded no call."""
        return [
            f"{module}.{attr}"
            for (module, attr, _, required), calls in zip(PATCH_POINTS, self.point_calls)
            if workload in required and calls == 0
        ]

    def network_runs(self) -> int:
        """Control-register measurements made by find_order: one per trial."""
        return self.children.get(("order_finding.find_order", "statevec.sample"), (0,))[0]

    def layer_metrics(self, overhead: float) -> dict:
        """Values of the per-layer metrics, keyed as in LAYER_METRICS."""

        def stat(name):
            return self.stats.get(name, (0, 0.0, 0.0, 0))

        def networks(index):
            return sum(self.children.get(("order_finding.find_order", n), (0, 0.0))[index]
                       for n in NETWORK_SPANS)

        out = {}
        for name, fields in SPAN_FIELDS:
            calls, seconds, self_seconds, amps = stat(name)
            values = {"calls": calls, "s": seconds, "self_s": self_seconds,
                      "ns_per_amp": seconds * 1e9 / amps if amps else 0.0}
            for field in fields:
                out[f"{name}.{field}"] = values[field]
        runs = self.network_runs()
        orders = stat("order_finding.find_order")[0]
        out["statevec.check_unitary.calls"] = stat("statevec.check_unitary")[0]
        out["gates.gate2x2.constructed"] = stat("gates.gate2x2")[0]
        out["order_finding.network_runs"] = runs
        out["order_finding.network_builds"] = networks(0)
        out["order_finding.network_s"] = networks(1)
        out["order_finding.network_runs_per_order"] = runs / orders if orders else 0.0
        out["order_finding.useful_ratio"] = orders / runs if runs else 0.0
        out["order_finding.find_order.self_s"] = stat("order_finding.find_order")[2]
        out["algorithms.oracle_calls"] = self.oracle_calls
        out["cli.bytes_out"] = self.bytes_out
        out["trace.overhead"] = overhead
        return {name: out[name] for name, _, _ in LAYER_METRICS}


# Span name -> which of calls, s, self_s, ns_per_amp it reports.
SPAN_FIELDS = (
    ("statevec.single", ("calls", "s", "ns_per_amp")),
    ("statevec.controlled", ("calls", "s", "ns_per_amp")),
    ("statevec.perm", ("calls", "s", "ns_per_amp")),
    ("statevec.marginal", ("calls", "s")),
    ("statevec.sample", ("calls", "s")),
    ("gates.f_controlled_not", ("calls", "self_s")),
    ("gates.controlled_modmult", ("calls", "self_s")),
    ("qft.qft", ("calls", "s", "self_s")),
    ("qft.inverse_qft", ("calls", "s", "self_s")),
    ("qft.dft_reference", ("calls", "s")),
    ("phase_estimation.kernel_state", ("calls", "s", "self_s")),
    ("phase_estimation.control_distribution", ("calls", "s")),
    ("phase_estimation.analytic_distribution", ("calls", "s")),
    ("algorithms.grover", ("calls", "s")),
    ("algorithms.pattern", ("calls", "s")),
    ("algorithms.promise", ("calls", "s")),
    ("analysis.cross_minor", ("calls", "s")),
    ("analysis.sweep", ("calls", "s")),
    ("cli.main", ("calls", "s", "self_s")),
)

_UNITS = {"calls": "count", "s": "s", "self_s": "s", "ns_per_amp": "ns/amp"}

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = tuple(
    (f"{name}.{field}", _UNITS[field], "lower")
    for name, fields in SPAN_FIELDS
    for field in fields
) + (
    ("statevec.check_unitary.calls", "count", "lower"),
    ("gates.gate2x2.constructed", "count", "lower"),
    ("order_finding.network_runs", "count", "lower"),
    ("order_finding.network_builds", "count", "lower"),
    ("order_finding.network_s", "s", "lower"),
    ("order_finding.network_runs_per_order", "runs/order", "lower"),
    ("order_finding.useful_ratio", "ratio", "higher"),
    ("order_finding.find_order.self_s", "s", "lower"),
    ("algorithms.oracle_calls", "count", "lower"),
    ("cli.bytes_out", "B", "lower"),
    ("trace.overhead", "ratio", "lower"),
)
