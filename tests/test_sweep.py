"""The strand kernel against the tuple oracles, through the sweep and the
single-shot TCurve -> TFilling, and its invariant checks under corrupted
tables through both."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tcurve_lab.sweep as sweep_module
from tcurve_lab.errors import InvariantError
from tcurve_lab.filling import build_filling
from tcurve_lab.surface import build_ambient_surface
from tcurve_lab.sweep import compile_sweep, run_sweep, sweep
from tcurve_lab.tcurve import TCurve
from tcurve_lab.triangulation import generate_grid_triangulation, incidence_graphs

from conftest import standard_triangle
from helpers import (match_oracles, primitive_triangulation, random_flips,
                     random_polygon)

SRC = Path(sweep_module.__file__).resolve().parents[1]


def mask_signs(tri, mask):
    """The sign vector of ``mask``: bit k for the k-th sorted lattice point."""
    return {p: 1 if mask >> k & 1 else -1
            for k, p in enumerate(tri.polygon.lattice_points)}


def compiled(surface, tri):
    return compile_sweep(surface, tri, incidence_graphs(surface, tri))


def reference(surface, tri, tables, mask):
    """(D, orientable) of one sign vector by the tuple oracles, once the
    single-shot curve and filling on ``tables`` have matched them."""
    curve = TCurve(surface, tri, mask_signs(tri, mask), tables=tables)
    return match_oracles(curve, build_filling(curve))


def test_random_instances_match_reference():
    """200 seeded polygons with V <= 11 under random primitive
    triangulations: every vector when V <= 9, 64 sampled ones above.

    A sign vector and its negation have the same edge signs, so the
    reference builds one curve and one filling for both."""
    rng = random.Random(2024)
    instances = vectors = 0
    while instances < 200:
        poly = random_polygon(rng, box=3)
        v = len(poly.lattice_points)
        if v > 11:
            continue
        instances += 1
        tri = random_flips(rng, primitive_triangulation(poly), v)
        surface = build_ambient_surface(poly)
        got = list(sweep(surface, tri))
        assert len(got) == 1 << v
        half = 1 << (v - 1)
        masks = range(half) if v <= 9 else rng.sample(range(half), 32)
        tables = compiled(surface, tri)
        for mask in masks:
            want = reference(surface, tri, tables, mask)
            assert got[mask] == got[~mask % (1 << v)] == want, (poly, mask)
            vectors += 2
    assert vectors > 200 * 64


def test_t4_distribution():
    t4 = standard_triangle(4)
    surface = build_ambient_surface(t4)
    tri = generate_grid_triangulation(t4)
    got = list(sweep(surface, tri))
    dist: dict = {}
    for d, _ in got:
        dist[d] = dist.get(d, 0) + 1
    # every multiplicity is a multiple of 512 (recorded, not explained)
    assert dist == {1: 14336, 2: 14336, 3: 3584, 4: 512}
    tables = compiled(surface, tri)
    for mask in random.Random(4).sample(range(1 << 15), 32):
        assert got[mask] == reference(surface, tri, tables, mask)


def test_memo_runs_once_per_twist_vector(monkeypatch):
    t3 = standard_triangle(3)
    surface = build_ambient_surface(t3)
    tri = generate_grid_triangulation(t3)
    keys = []
    trace = sweep_module._trace

    def counted(tab, tw):
        keys.append(bytes(tw))
        return trace(tab, tw)

    monkeypatch.setattr(sweep_module, "_trace", counted)
    assert sum(1 for _ in sweep(surface, tri)) == 1024
    assert len(keys) == len(set(keys)) == 1 << (10 - 3)


# ---------------------------------------------------------------------------
# corrupted tables

def _corrupt_seg_par(tab):
    e = tab.boundary[0][0]
    tab.seg_par[tab.E + e] ^= 1


def _corrupt_edge_class(tab):
    e, f = tab.boundary[0][0], tab.boundary[1][0]
    tab.edge_class[tab.E + e] = tab.E + f


def _corrupt_edge_ends(tab):
    a, _ = tab.edge_ends[0]
    tab.edge_ends[0] = (a, a)


def _corrupt_across(tab):
    # re-pair two midpoints: u-w and x-y become u-x and w-y
    u, w = 0, tab.across[0]
    x = next(x for x, y in enumerate(tab.across) if {x, y}.isdisjoint({u, w}))
    y = tab.across[x]
    tab.across[u], tab.across[x], tab.across[w], tab.across[y] = x, u, y, w


def _corrupt_across_interior(tab):
    # the same between the prongs of two interior edges in quadrant (0,0)
    (_, u, w), (_, x, y) = tab.interior[:2]
    tab.across[u], tab.across[x], tab.across[w], tab.across[y] = x, u, y, w


def _corrupt_succ_pair(tab):
    # a permutation still, in both tables, but not the ribbon's
    s, s2 = tab.interior[0][1], tab.interior[1][1]
    for table in tab.succ:
        table[4 * s], table[4 * s2] = table[4 * s2], table[4 * s]


def _corrupt_succ(tab):
    plain, _ = tab.succ
    plain[0], plain[2] = plain[2], plain[0]


def _corrupt_twisted_succ(tab):
    _, twisted = tab.succ
    s = tab.interior[0][1]
    twisted[4 * s] = twisted[4 * s + 2]


def _corrupt_slots(tab):
    tab.slots[0], tab.slots[1] = tab.slots[1], tab.slots[0]


CORRUPTIONS = [_corrupt_seg_par, _corrupt_edge_class, _corrupt_edge_ends,
               _corrupt_across, _corrupt_across_interior, _corrupt_succ,
               _corrupt_succ_pair, _corrupt_twisted_succ, _corrupt_slots]


def sweep_driver(surface, tri, tab):
    for _ in run_sweep(tab):
        pass


def single_shot_driver(surface, tri, tab):
    """TCurve -> TFilling on the same tables, every vector in mask order."""
    for mask in range(1 << tab.V):
        build_filling(TCurve(surface, tri, mask_signs(tri, mask), tables=tab))


DRIVERS = [sweep_driver, single_shot_driver]


# the sweep keeps the bare ids
@pytest.mark.parametrize("corrupt, driver", [
    pytest.param(corrupt, driver, id=corrupt.__name__[9:] + suffix)
    for corrupt in CORRUPTIONS
    for driver, suffix in zip(DRIVERS, ("", "-single-shot"))])
def test_corrupted_table_raises(corrupt, driver):
    t3 = standard_triangle(3)
    surface, tri = build_ambient_surface(t3), generate_grid_triangulation(t3)
    tab = compiled(surface, tri)
    corrupt(tab)
    with pytest.raises(InvariantError):
        driver(surface, tri, tab)


def test_checks_survive_python_O():
    """Both drivers, in one interpreter under -O."""
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import test_sweep\n"
            "from tcurve_lab.errors import InvariantError\n"
            "from tcurve_lab.lattice import validate_polygon\n"
            "from tcurve_lab.surface import build_ambient_surface\n"
            "from tcurve_lab.triangulation import generate_grid_triangulation\n"
            "t2 = validate_polygon([(0, 0), (2, 0), (0, 2)])\n"
            "surface = build_ambient_surface(t2)\n"
            "tri = generate_grid_triangulation(t2)\n"
            "for driver in test_sweep.DRIVERS:\n"
            "    tab = test_sweep.compiled(surface, tri)\n"
            "    tab.seg_par[tab.E + tab.boundary[0][0]] ^= 1\n"
            "    try:\n"
            "        driver(surface, tri, tab)\n"
            "    except InvariantError:\n"
            "        print(driver.__name__, 'raised')\n")
    out = subprocess.run([sys.executable, "-O", "-c", code,
                          str(Path(__file__).parent)], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.split("\n")[:2] == [f"{d.__name__} raised" for d in DRIVERS]
