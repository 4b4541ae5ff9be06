"""Output checks made apart from the program.

Kernel outputs are compared with the benchmark's own numpy code, never
with the kernels' bundled references or a stored copy of earlier
output.  Rules are checked by evaluating both sides at points the
benchmark draws itself.  This module also folds a compile report into
the per-layer metrics.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import common

#: Pipeline passes whose times are reported as ``compiler.<pass>_s``.
#: The frontend pass (a field lookup once kernels are traced) falls in
#: ``compiler.unattributed_s``; kernel tracing itself is
#: ``compiler.frontend_s``, part of set-up.
PASSES = ("saturate", "optimize", "extract", "validate", "lower")

_RTOL = 1e-6
_ATOL = 1e-9


def close(got, want) -> bool:
    """Equal up to float rounding of a reordered computation."""
    got = np.ravel(np.asarray(got, dtype=float))
    want = np.ravel(np.asarray(want, dtype=float))
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=_RTOL, atol=_ATOL * scale))


def conv2d(image, filt):
    """Full 2-D convolution by explicit loops."""
    rows, cols = image.shape
    frows, fcols = filt.shape
    out = np.zeros((rows + frows - 1, cols + fcols - 1))
    for r in range(out.shape[0]):
        for c in range(out.shape[1]):
            for i in range(frows):
                for j in range(fcols):
                    if 0 <= r - i < rows and 0 <= c - j < cols:
                        out[r, c] += image[r - i, c - j] * filt[i, j]
    return out


def hamilton(p, q):
    """The Hamilton product ``p * q`` of quaternions ``(w, x, y, z)``."""
    pw, pv = p[0], np.asarray(p[1:])
    qw, qv = q[0], np.asarray(q[1:])
    w = pw * qw - pv @ qv
    v = pw * qv + qw * pv + np.cross(pv, qv)
    return np.concatenate([[w], v])


def fig4_problems(key: str, got, inputs: dict) -> list:
    """What is wrong with ``got`` as the output of Fig. 4 kernel ``key``."""
    arr = {k: np.asarray(v, dtype=float) for k, v in inputs.items()}
    if key == "2dconv-3x3-2x2":
        want = conv2d(arr["I"].reshape(3, 3), arr["F"].reshape(2, 2))
    elif key == "matmul-2x2x2":
        want = arr["A"].reshape(2, 2) @ arr["B"].reshape(2, 2)
    elif key == "qprod":
        want = hamilton(arr["p"], arr["q"])
    elif key == "qr-3x3":
        # Householder R is unique up to the sign of each row.
        r = np.asarray(got, dtype=float).reshape(3, 3)
        want_r = np.linalg.qr(arr["A"].reshape(3, 3)).R
        problems = []
        if not close(np.abs(r), np.abs(want_r)):
            problems.append(f"{key}: |R| differs from numpy")
        if not close(np.tril(r, -1), np.zeros((3, 3))):
            problems.append(f"{key}: R is not upper-triangular")
        return problems
    else:
        raise KeyError(key)
    return [] if close(got, want) else [f"{key}: output differs from numpy"]


def elementwise_problems(stem: str, got, inputs: dict, label: str) -> list:
    """Check an elementwise kernel against the direct computation."""
    a, b, c = (np.asarray(inputs[k], dtype=float) for k in "abc")
    want = common.ELEMENTWISE[stem](a, b, c)
    return [] if close(got, want) else [f"{label}: output differs from numpy"]


def compile_layers() -> dict:
    """The compile-layer metrics of one sweep, all zero."""
    return dict.fromkeys(
        ["compiler.compile_s", "compiler.unattributed_s", "compiler.rounds",
         "egraph.expansion_s", "egraph.compilation_s",
         "egraph.optimization_s", "egraph.match_s", "egraph.rebuild_s",
         "egraph.index_s", "egraph.node_visits", "egraph.iterations",
         "egraph.extract_round_s", "egraph.peak_nodes",
         "egraph.time_limit_stops"]
        + [f"compiler.{p}_s" for p in PASSES], 0.0)


def add_compile_layers(layers: dict, report, wall: float) -> None:
    """Accumulate one compile's report into the per-layer metrics."""
    passes = report.pass_times()
    attributed = 0.0
    for name in PASSES:
        layers[f"compiler.{name}_s"] += passes.get(name, 0.0)
        attributed += passes.get(name, 0.0)
    layers["compiler.compile_s"] += wall
    layers["compiler.unattributed_s"] += wall - attributed
    layers["compiler.rounds"] += len(report.rounds)
    for r in report.rounds:
        if r.expansion is not None:
            layers["egraph.expansion_s"] += r.expansion.elapsed
            layers["egraph.iterations"] += r.expansion.n_iterations
        if r.compilation is not None:
            layers["egraph.compilation_s"] += r.compilation.elapsed
            layers["egraph.iterations"] += r.compilation.n_iterations
    if report.optimization is not None:
        layers["egraph.optimization_s"] += report.optimization.elapsed
        layers["egraph.iterations"] += report.optimization.n_iterations
    perf = report.saturation_perf()
    layers["egraph.match_s"] += perf.match_time
    layers["egraph.rebuild_s"] += perf.rebuild_time
    layers["egraph.index_s"] += perf.index_time
    layers["egraph.node_visits"] += perf.node_visits
    layers["egraph.extract_round_s"] += (
        report.extract_time - passes.get("extract", 0.0))
    layers["egraph.peak_nodes"] = max(
        layers["egraph.peak_nodes"], report.peak_nodes)
    layers["egraph.time_limit_stops"] += common.time_limit_stops(report)


def _wildcard_kinds(rule, spec) -> dict:
    """Whether each wildcard of ``rule`` stands for a vector or a lane.

    Arguments of ``Vec`` and of scalar instructions are lanes, arguments
    of vector instructions are vectors, and other operators pass their
    own kind on.  A side rooted at ``Vec`` or a vector instruction is a
    vector; any other side is a lane.
    """
    from repro.lang import term as T
    from repro.lang.ops import OpKind

    def is_vector(node):
        return node.op == "Vec" or (
            spec.has_instruction(node.op)
            and spec.instruction(node.op).kind is OpKind.VECTOR)

    root = rule.rhs if T.is_wildcard(rule.lhs) else rule.lhs
    kinds: dict = {}

    def visit(node, kind):
        if T.is_wildcard(node):
            kinds.setdefault(node.payload, kind)
            return
        child = kind
        if node.op == "Vec":
            child = "scalar"
        elif spec.has_instruction(node.op):
            vector = spec.instruction(node.op).kind is OpKind.VECTOR
            child = "vector" if vector else "scalar"
        for arg in node.args:
            visit(arg, child)

    visit(rule.lhs, "vector" if is_vector(root) else "scalar")
    return kinds


def rule_holds(rule, spec, rng, points: int = 6) -> bool | None:
    """LHS equals RHS at ``points`` random rational points.

    Points where either side is undefined (a division by zero, the
    square root of a negative) are skipped; ``None`` means no point
    was defined on both sides.
    """
    from repro.interp.value import UNDEFINED, values_equal
    from repro.ruler.verify import pattern_to_term

    interpreter = spec.interpreter()
    kinds = _wildcard_kinds(rule, spec)
    lhs, rhs = pattern_to_term(rule.lhs), pattern_to_term(rule.rhs)
    width = spec.vector_width

    def draw():
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))

    defined = 0
    for _ in range(points):
        env = {
            name: (tuple(draw() for _ in range(width))
                   if kinds.get(name) == "vector" else draw())
            for name in sorted(kinds)
        }
        left = interpreter.evaluate(lhs, env)
        right = interpreter.evaluate(rhs, env)
        if left is UNDEFINED or right is UNDEFINED:
            continue
        defined += 1
        if not values_equal(left, right):
            return False
    return True if defined else None


def rule_sample_problems(rules, spec, rng, label: str, n: int) -> list:
    """Check a seeded sample of ``n`` rules; returns what failed."""
    picks = rng.choice(len(rules), size=min(n, len(rules)), replace=False)
    from repro.interp.interpreter import EvalError

    problems = []
    for i in sorted(int(i) for i in picks):
        rule = rules[i]
        try:
            holds = rule_holds(rule, spec, rng)
        except EvalError as exc:
            problems.append(f"{label}: rule {rule.name} ({rule}) could not "
                            f"be evaluated: {exc}")
            continue
        if holds is False:
            problems.append(f"{label}: rule {rule.name} ({rule}) "
                            "does not hold")
    return problems
