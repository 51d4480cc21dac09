"""Exact linear algebra layer, checked against closure enumeration and
against the pure-Python reference engine in oracles."""

import itertools
import random
import subprocess
import sys
from math import gcd, lcm, prod

import pytest

from extlift.errors import BoundExceeded
from extlift.intlin import TriangularLattice, ext_gcd, kernel_order
from oracles import TriangularLattice as ReferenceLattice


def test_ext_gcd_bezout():
    cases = [(0, 0), (0, 5), (5, 0), (12, 18), (-12, 18), (12, -18),
             (-7, -21), (1, 1), (17, 1), (2 ** 70, 3 ** 45)]
    rng = random.Random(1)
    cases += [(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(-10 ** 6, 10 ** 6))
              for _ in range(200)]
    for a, b in cases:
        g, x, y = ext_gcd(a, b)
        assert g == gcd(a, b)
        assert a * x + b * y == g
        assert g >= 0


def span_by_closure(moduli, gens):
    """All elements of prod Z/m_i generated by gens, by plain BFS."""
    def red(v):
        return tuple(a % m for a, m in zip(v, moduli))

    seen = {tuple([0] * len(moduli))}
    frontier = [tuple([0] * len(moduli))]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = red([a + b for a, b in zip(cur, g)])
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@pytest.mark.parametrize("moduli", [(2,), (6,), (2, 2), (2, 4), (4, 6), (3, 3, 9)])
def test_lattice_matches_closure(moduli):
    rng = random.Random(42 + len(moduli))
    for _ in range(25):
        gens = [tuple(rng.randrange(0, m) for m in moduli)
                for _ in range(rng.randrange(0, 4))]
        lat = TriangularLattice(moduli, expr_len=len(gens))
        for i, g in enumerate(gens):
            lat.insert(g, [1 if j == i else 0 for j in range(len(gens))])
        span = span_by_closure(moduli, gens)
        assert lat.span_order() == len(span)
        for vec in itertools.product(*[range(m) for m in moduli]):
            assert lat.contains(vec) == (vec in span)


def test_reduce_recovers_generator_expression():
    moduli = (4, 6, 8)
    rng = random.Random(9)
    gens = [tuple(rng.randrange(0, m) for m in moduli) for _ in range(4)]
    lat = TriangularLattice(moduli, expr_len=4)
    for i, g in enumerate(gens):
        lat.insert(g, [1 if j == i else 0 for j in range(4)])
    for _ in range(50):
        coeffs = [rng.randrange(-5, 6) for _ in range(4)]
        vec = [sum(c * g[j] for c, g in zip(coeffs, gens)) % m
               for j, m in enumerate(moduli)]
        expr = lat.reduce(vec)
        assert expr is not None
        rebuilt = [sum(e * g[j] for e, g in zip(expr, gens)) % m
                   for j, m in enumerate(moduli)]
        assert rebuilt == list(vec)


def test_remainder_is_canonical_on_cosets():
    moduli = (4, 4)
    lat = TriangularLattice(moduli)
    lat.insert((2, 1))
    span = span_by_closure(moduli, [(2, 1)])
    reps = {}
    for vec in itertools.product(range(4), range(4)):
        # coset key: the sorted orbit vec + span
        coset = frozenset(tuple((a + b) % 4 for a, b in zip(vec, s)) for s in span)
        r = lat.remainder(vec)
        assert tuple(a % 4 for a in r) in coset or lat.contains(
            [a - b for a, b in zip(vec, r)])
        if coset in reps:
            assert reps[coset] == r
        else:
            reps[coset] = r
    assert len(reps) == 16 // len(span)


def test_remainder_zero_iff_member():
    moduli = (2, 4, 3)
    lat = TriangularLattice(moduli)
    lat.insert((1, 2, 0))
    lat.insert((0, 2, 2))
    for vec in itertools.product(range(2), range(4), range(3)):
        assert (lat.remainder(vec) == (0,) * 3) == lat.contains(vec)


def test_insert_is_idempotent_on_det():
    lat = TriangularLattice((8, 8))
    lat.insert((2, 3))
    d = lat.det()
    lat.insert((2, 3))
    assert lat.det() == d


def test_lattice_input_validation():
    with pytest.raises(ValueError):
        TriangularLattice((0, 2))
    lat = TriangularLattice((2, 2))
    with pytest.raises(ValueError):
        lat.insert((1,))
    with pytest.raises(ValueError):
        lat.reduce((1, 0, 0))


def brute_kernel(rows, row_moduli, col_moduli):
    count = 0
    for v in itertools.product(*[range(m) for m in col_moduli]):
        if all(sum(r * x for r, x in zip(row, v)) % m == 0
               for row, m in zip(rows, row_moduli)):
            count += 1
    return count


def test_kernel_order_matches_enumeration():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randrange(1, 4)
        col = [rng.choice([2, 3, 4, 6]) for _ in range(k)]
        s = rng.randrange(1, 4)
        row_m = [rng.choice([2, 3, 4, 6]) for _ in range(s)]
        rows = []
        for m in row_m:
            # keep the system well defined: entry * col_modulus = 0 mod m
            row = []
            for cm in col:
                step = m // gcd(m, cm)
                row.append(step * rng.randrange(0, max(1, m // step)))
            rows.append(row)
        assert kernel_order(rows, row_m, col) == brute_kernel(rows, row_m, col)


def test_kernel_order_trivial_cases():
    assert kernel_order([], [], []) == 1
    assert kernel_order([[0, 0]], [5], [5, 5]) == 25
    assert kernel_order([[1]], [7], [7]) == 1
    total = prod([4, 6])
    assert kernel_order([[2, 0], [0, 3]], [4, 6], [4, 6]) == total // (2 * 2)


def _dense(lattice):
    """The square basis and expressions the compact lattice stands for: its
    stored rows at their pivot columns, m_i e_i with a zero expression
    elsewhere."""
    n, moduli = lattice.n, lattice.moduli
    rows = [[m * (j == i) for j in range(n)] for i, m in enumerate(moduli)]
    exprs = [[0] * lattice.expr_len for _ in range(n)]
    for i, p, s in zip(lattice._piv, lattice._pivots, lattice._at):
        assert lattice._diag[i] == lattice._rows[s, i] == p < moduli[i]
        rows[i], exprs[i] = lattice._rows[s].tolist(), lattice._exprs[s].tolist()
    assert [r[i] for i, r in enumerate(rows)] == lattice._diag.tolist()
    return rows, exprs


@pytest.mark.parametrize("moduli", [(4, 6, 8), (2, 4, 8, 8), (3, 9, 9), (12, 18, 8)])
def test_lattice_matches_reference_engine(moduli):
    """Same rows, det, remainders and (mod lcm) expressions as the reference:
    the witnesses depend on the exact sequence of row operations."""
    rng = random.Random(sum(moduli))
    L = lcm(*moduli)
    vectors = list(itertools.product(*[range(m) for m in moduli]))
    for trial in range(12):
        count = rng.randrange(1, 6)
        new = TriangularLattice(moduli, expr_len=count)
        ref = ReferenceLattice(moduli, expr_len=count)
        for i in range(count):
            # unreduced and negative entries too: insert must not reduce them
            vec = [rng.randrange(-3 * m, 3 * m) for m in moduli]
            unit = [int(j == i) for j in range(count)]
            new.insert(vec, unit)
            ref.insert(vec, unit)
            rows, exprs = _dense(new)
            assert rows == ref.rows
            assert exprs == [[x % L for x in e] for e in ref.exprs]
        assert new.det() == ref.det()
        assert new.span_order() == ref.span_order()
        for vec in vectors:
            shifted = [x + rng.randrange(-2, 3) * m for x, m in zip(vec, moduli)]
            assert new.remainder(shifted) == ref.remainder(shifted)
            got, want = new.reduce(shifted), ref.reduce(shifted)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.tolist() == [x % L for x in want]


def _peak_entry(lattice, vec):
    """Largest |entry| the reference engine's insert holds while inserting vec."""
    peak = 0
    codes = (ReferenceLattice.insert.__code__, ReferenceLattice._reduce_tail.__code__)

    def local(frame, event, arg):
        nonlocal peak
        for name in ("v", "new_v", "new_row", "row"):
            val = frame.f_locals.get(name)
            if val:
                peak = max(peak, max(abs(x) for x in val))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code in codes else None

    sys.settrace(calls)
    try:
        lattice.insert(vec)
    finally:
        sys.settrace(None)
    return peak


def test_entries_beyond_64_bits_raise_instead_of_wrapping():
    moduli = (1 << 20,) * 4
    vec = [948708, 976538, 947561, 398253]
    assert _peak_entry(ReferenceLattice(moduli), vec) >= 1 << 63
    with pytest.raises(BoundExceeded):
        TriangularLattice(moduli).insert(vec)
    with pytest.raises(BoundExceeded):
        TriangularLattice((2, 2)).remainder([1 << 64, 0])


def test_kernel_order_leaves_numpy_ma_unloaded():
    """The dedupe of kernel_order imports nothing beyond numpy's core: a
    fresh interpreter that builds one cohomology group (whose Z^2 count is a
    kernel_order call) has no numpy.ma loaded."""
    code = ("import sys\n"
            "from extlift import CohomologyGroup, catalog\n"
            "cg = CohomologyGroup(catalog('dihedral', 8), (2,))\n"
            "assert cg.z2_order > 1\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
