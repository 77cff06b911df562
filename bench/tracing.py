"""The in-process pass: the same calls a `tcurve-lab` process makes, with
spans and counters recorded around the calls into each layer.

`instrument` swaps the layer functions that `tcurve_lab.cli` (and
`tcurve_lab.tcurve`, for incidence graphs) look up for wrappers that open a
span, and restores them on exit.  Lazy caches are forced inside the span of
the layer that owns them, so their cost is not charged to the first caller.
A layer's self time is its spans' durations minus the time their child
spans cover.
"""

import json
import time
from contextlib import contextmanager, nullcontext

import tcurve_lab.cli as cli
import tcurve_lab.tcurve as tcurve
from tcurve_lab.lattice import lattice_census
from tcurve_lab.surface import AmbientSurface

TIMED_LAYERS = ("cli.yaml_load", "cli.problem", "cli.report",
                "lattice.polygon", "lattice.census", "surface.build",
                "triangulation.build", "triangulation.incidence",
                "tcurve.extract", "tcurve.classify", "tcurve.census_check",
                "filling.build", "filling.classify", "svg.render")
COUNTERS = ("lattice.points", "lattice.interior_points", "surface.broken_edges",
            "triangulation.triangles", "tcurve.components", "tcurve.ovals",
            "filling.boundary_circles", "svg.bytes")


class Tracer:
    """Spans (name, start ns, end ns, parent index) and counters, kept in
    memory for one pass."""

    def __init__(self):
        self.spans = []
        self.roots = []          # (span index, invocation label)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.max_depth = 0
        self.vectors = 0
        self.fillings = 0
        self.twist_vectors = {}  # invocation label -> set of twisted-edge sets
        self._stack = []

    @contextmanager
    def span(self, name: str):
        k = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(k)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[k][2] = time.perf_counter_ns()

    def count(self, name: str, n: int):
        self.counters[name] += n

    def self_ns(self) -> list:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_ms_by_root(self) -> dict:
        """Invocation label -> layer -> self time in ms."""
        own = self.self_ns()
        label = {k: lab for k, lab in self.roots}
        root = []
        for name, _, _, parent in self.spans:
            root.append(len(root) if parent < 0 else root[parent])
        out = {lab: {} for lab in label.values()}
        for k, (name, *_rest) in enumerate(self.spans):
            per = out[label[root[k]]]
            per[name] = per.get(name, 0) + own[k] / 1e6
        return out

    def metrics(self) -> dict:
        own = self.self_ns()
        ms = dict.fromkeys(TIMED_LAYERS, 0)
        for (name, *_rest), t in zip(self.spans, own):
            if name in ms:
                ms[name] += t / 1e6
        out = {f"{name}_ms": v for name, v in ms.items()}
        out.update(self.counters)
        out["tcurve.max_depth"] = self.max_depth
        vectors = max(self.vectors, 1)
        out["tcurve.extract_us_per_vector"] = 1000 * ms["tcurve.extract"] / vectors
        out["filling.build_us_per_vector"] = 1000 * ms["filling.build"] / vectors
        out["filling.classify_us_per_vector"] = 1000 * ms["filling.classify"] / vectors
        distinct = sum(len(s) for s in self.twist_vectors.values())
        out["filling.twist_vector_yield"] = distinct / max(self.fillings, 1)
        return out

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"roots": self.roots, "spans": self.spans}, fh)


def _traced(tr: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        with tr.span(name):
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
        return result
    return wrapper


@contextmanager
def instrument(tr: Tracer):
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def validate_polygon(vertices):
        with tr.span("lattice.polygon"):
            poly = orig_validate(vertices)
        with tr.span("lattice.census"):
            census = lattice_census(poly)   # forces Polygon.lattice_points
        tr.count("lattice.points", census.total_points)
        tr.count("lattice.interior_points", census.interior_points)
        return poly

    def after_triangulation(tri):
        tri.edges, tri.slots  # force the lazy caches
        tr.count("triangulation.triangles", tri.T)

    def after_curve(curve):
        tr.vectors += 1
        tr.count("tcurve.components", len(curve.components))

    def after_filling(filling):
        tr.fillings += 1
        tr.count("filling.boundary_circles", filling.boundary_count)
        tr.twist_vectors.setdefault(tr.roots[-1][1], set()).add(
            frozenset(e for e, twisted in filling.twists.items() if twisted))

    def curve_report(curve):
        with tr.span("tcurve.classify"):
            classes = tcurve.classify_components(curve).values()
            curve.census
        tr.count("tcurve.ovals", sum(1 for c in classes if c.kind == "oval"))
        tr.max_depth = max([tr.max_depth] + [c.depth or 0 for c in classes])
        with tr.span("cli.report"):
            return orig_curve_report(curve)

    orig_validate = cli.validate_polygon
    orig_curve_report = cli.curve_report
    try:
        patch(cli, "problem_from_data",
              _traced(tr, "cli.problem", cli.problem_from_data))
        patch(cli, "validate_polygon", validate_polygon)
        patch(cli, "build_ambient_surface", _traced(
            tr, "surface.build", cli.build_ambient_surface,
            lambda s: tr.count("surface.broken_edges", s.r)))
        for method in ("classify_topology", "canonical_atlas"):
            patch(AmbientSurface, method,
                  _traced(tr, "surface.build", getattr(AmbientSurface, method)))
        patch(cli.Problem, "build_triangulation", _traced(
            tr, "triangulation.build", cli.Problem.build_triangulation,
            after_triangulation))
        for owner in (cli, tcurve):
            patch(owner, "incidence_graphs", _traced(
                tr, "triangulation.incidence", owner.incidence_graphs))
        patch(cli, "harnack_distribution",
              _traced(tr, "tcurve.extract", cli.harnack_distribution))
        for attr in ("extract_curve", "TCurve"):
            patch(cli, attr, _traced(tr, "tcurve.extract", getattr(cli, attr),
                                     after_curve))
        patch(cli, "curve_report", curve_report)
        for attr in ("surface_report", "filling_report"):
            patch(cli, attr, _traced(tr, "cli.report", getattr(cli, attr)))
        patch(cli, "build_filling", _traced(tr, "filling.build", cli.build_filling,
                                            after_filling))
        for attr in ("classify_filling", "harnack_check"):
            patch(cli, attr, _traced(tr, "filling.classify", getattr(cli, attr)))
        for attr in ("predicted_harnack_census", "verify_harnack_census"):
            patch(cli, attr, _traced(tr, "tcurve.census_check", getattr(cli, attr)))
        patch(cli, "render_svg", _traced(
            tr, "svg.render", cli.render_svg,
            lambda svg: tr.count("svg.bytes", len(svg.encode()))))
        yield tr
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def run_invocation(inv, tr: Tracer | None) -> str:
    """What `tcurve_lab.cli.main` does for one invocation, minus argument
    parsing and the output write; returns the output text."""
    if tr is None:
        result = cli.run_subcommand(inv.subcommand, cli.parse_problem(inv.problem))
        return result if isinstance(result, str) else json.dumps(result, indent=2)
    tr.roots.append((len(tr.spans), inv.label))
    with tr.span("cli.run"):
        with tr.span("cli.yaml_load"):
            problem = cli.parse_problem(inv.problem)
        result = cli.run_subcommand(inv.subcommand, problem)
        if isinstance(result, str):
            return result
        with tr.span("cli.report"):
            return json.dumps(result, indent=2)


def inprocess_pass(invocations, tr: Tracer | None, log) -> tuple[float, int]:
    """Run every invocation in this process; returns (seconds spent in the
    invocations, operations failed)."""
    spent, failed = 0.0, 0
    with instrument(tr) if tr is not None else nullcontext():
        for inv in invocations:
            t0 = time.perf_counter()
            try:
                text = run_invocation(inv, tr)
            except (cli.TCurveLabError, AssertionError) as exc:
                # the errors `main` turns into exit codes 1 and 2
                text = None
                log(f"{inv.label}: {type(exc).__name__}: {exc}")
            spent += time.perf_counter() - t0
            if text is None or not inv.passes(text, log):
                failed += 1
    return spent, failed
