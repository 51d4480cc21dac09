"""Deterministic constructors for the standard small-group families.

Each constructor encodes elements explicitly and emits a Cayley table with
the identity at index 0; every output goes through full table validation.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Optional, Sequence

from . import config
from .errors import BadParameters, BoundExceeded, InputError, UnknownName
from .groups import (
    FiniteGroup,
    GroupAutomorphism,
    group_from_permutations,
    is_integer,
    is_prime,
)

__all__ = [
    "catalog",
    "direct_product",
    "semidirect_product",
    "parse_catalog_expression",
    "shipped_corpus",
    "CATALOG_NAMES",
]

_ALIASES = {
    "heisenberg": "heisenberg_mod_p",
    "quaternion": "generalized_quaternion",
}


def _check_order(order: int) -> None:
    limit = config.max_order()
    if order > limit:
        raise BoundExceeded(f"requested group of order {order} exceeds bound {limit}")


def _cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise BadParameters(f"cyclic order must be >= 1, got {n}")
    _check_order(n)
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=f"cyclic{n}")


def _dihedral(m: int) -> FiniteGroup:
    # order m group of symmetries of the (m/2)-gon; element i + n*j is r^i s^j
    if m < 2 or m % 2:
        raise BadParameters(f"dihedral order must be even and >= 2, got {m}")
    _check_order(m)
    n = m // 2

    def mul(e1: int, e2: int) -> int:
        i1, j1 = e1 % n, e1 // n
        i2, j2 = e2 % n, e2 // n
        i = (i1 + (i2 if j1 == 0 else -i2)) % n
        return i + n * (j1 ^ j2)

    table = [[mul(a, b) for b in range(m)] for a in range(m)]
    return FiniteGroup(table, name=f"dihedral{m}")


def _generalized_quaternion(m: int) -> FiniteGroup:
    # order m = 4k with a^(2k) = 1, b^2 = a^k, b a b^-1 = a^-1
    if m < 8 or m % 4:
        raise BadParameters(
            f"generalized quaternion order must be a multiple of 4 and >= 8, got {m}")
    _check_order(m)
    n = m // 2
    half = n // 2

    def mul(e1: int, e2: int) -> int:
        i1, j1 = e1 % n, e1 // n
        i2, j2 = e2 % n, e2 // n
        i = (i1 + (i2 if j1 == 0 else -i2) + (half if j1 and j2 else 0)) % n
        return i + n * (j1 ^ j2)

    table = [[mul(a, b) for b in range(m)] for a in range(m)]
    return FiniteGroup(table, name=f"quaternion{m}")


def _elementary_abelian(p: int, r: int) -> FiniteGroup:
    if not is_prime(p):
        raise BadParameters(f"{p} is not prime")
    if r < 1:
        raise BadParameters(f"rank must be >= 1, got {r}")
    n = p ** r
    _check_order(n)

    def mul(a: int, b: int) -> int:
        out, mult = 0, 1
        for _ in range(r):
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    table = [[mul(a, b) for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=f"elemab{p}_{r}")


def _heisenberg(p: int) -> FiniteGroup:
    # upper unitriangular 3x3 matrices over F_p; element (a, b, c) -> a*p^2 + b*p + c
    if not is_prime(p):
        raise BadParameters(f"{p} is not prime")
    n = p ** 3
    _check_order(n)

    def mul(e1: int, e2: int) -> int:
        a1, r1 = divmod(e1, p * p)
        b1, c1 = divmod(r1, p)
        a2, r2 = divmod(e2, p * p)
        b2, c2 = divmod(r2, p)
        return ((a1 + a2) % p) * p * p + ((b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p

    table = [[mul(a, b) for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=f"heisenberg{p}")


def _extraspecial(n: int, plus: bool) -> FiniteGroup:
    # central extension of F_2^(2n) by F_2 via a bilinear 2-cocycle whose
    # square form has Arf invariant 0 (plus) or 1 (minus)
    if n < 1:
        raise BadParameters(f"extraspecial parameter must be >= 1, got {n}")
    order = 2 ** (2 * n + 1)
    _check_order(order)
    width = 2 * n

    def beta(x: int, y: int) -> int:
        total = 0
        for i in range(0, width, 2):
            total += ((x >> i) & 1) * ((y >> (i + 1)) & 1)
        if not plus:
            total += ((x >> 0) & 1) * ((y >> 0) & 1) + ((x >> 1) & 1) * ((y >> 1) & 1)
        return total % 2

    def mul(e1: int, e2: int) -> int:
        x1, z1 = e1 >> 1, e1 & 1
        x2, z2 = e2 >> 1, e2 & 1
        return ((x1 ^ x2) << 1) | ((z1 + z2 + beta(x1, x2)) & 1)

    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    sign = "p" if plus else "m"
    return FiniteGroup(table, name=f"extraspecial{sign}{n}")


def direct_product(A: FiniteGroup, B: FiniteGroup,
                   name: Optional[str] = None) -> FiniteGroup:
    """Direct product; element (a, b) is a * |B| + b."""
    n = A.order * B.order
    _check_order(n)
    nb = B.order
    ta, tb = A.table, B.table
    table = [[ta[a1][a2] * nb + tb[b1][b2]
              for a2 in range(A.order) for b2 in range(nb)]
             for a1 in range(A.order) for b1 in range(nb)]
    return FiniteGroup(table, name=name or f"prod_{A.name}_{B.name}")


def semidirect_product(N: FiniteGroup, H: FiniteGroup,
                       action: Sequence[Sequence[int]],
                       name: Optional[str] = None) -> FiniteGroup:
    """Semidirect product N x| H for a homomorphism H -> Aut(N).

    action[h] lists the images of every element of N under the automorphism
    attached to h; the list must define a homomorphism (action[0] identity,
    action[h1*h2] the composite of action[h1] after action[h2]).
    """
    if len(action) != H.order:
        raise BadParameters("need one automorphism of N per element of H")
    auts = []
    for h, img in enumerate(action):
        try:
            auts.append(GroupAutomorphism(N, img))
        except InputError as exc:
            raise BadParameters(f"action[{h}] is not an automorphism of N: {exc}") from exc
    if not auts[0].is_identity:
        raise BadParameters("action[0] must be the identity automorphism")
    for h1 in range(H.order):
        for h2 in range(H.order):
            if auts[H.mul(h1, h2)].image != auts[h1].compose(auts[h2]).image:
                raise BadParameters(
                    f"action is not a homomorphism at pair ({h1},{h2})")
    n = N.order * H.order
    _check_order(n)
    nh = H.order
    tn, th = N.table, H.table

    def mul(e1: int, e2: int) -> int:
        n1, h1 = divmod(e1, nh)
        n2, h2 = divmod(e2, nh)
        return tn[n1][auts[h1](n2)] * nh + th[h1][h2]

    table = [[mul(a, b) for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=name or f"sdp_{N.name}_{H.name}")


def _same(value):
    return value


def _integer(value) -> int:
    """An integer parameter, or a string of digits; a float or a bool is refused."""
    if isinstance(value, str):
        return int(value)
    if not is_integer(value):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


# name -> (constructor, how each parameter is parsed)
_BUILDERS = {
    "cyclic": (_cyclic, (_integer,)),
    "dihedral": (_dihedral, (_integer,)),
    "generalized_quaternion": (_generalized_quaternion, (_integer,)),
    "elementary_abelian": (_elementary_abelian, (_integer, _integer)),
    "heisenberg_mod_p": (_heisenberg, (_integer,)),
    "extraspecial_plus": (partial(_extraspecial, plus=True), (_integer,)),
    "extraspecial_minus": (partial(_extraspecial, plus=False), (_integer,)),
    "direct_product": (direct_product, (_same, _same)),
    "semidirect_product": (semidirect_product, (_same, _same, _same)),
}
CATALOG_NAMES = tuple(_BUILDERS)


def catalog(name: str, *params) -> FiniteGroup:
    """Construct a named catalog group; see CATALOG_NAMES for valid names."""
    key = _ALIASES.get(name, name)
    if key not in _BUILDERS:
        raise UnknownName(f"unknown catalog group {name!r}")
    build, parsers = _BUILDERS[key]
    try:
        if len(params) != len(parsers):
            raise ValueError("wrong number of parameters")
        args = [parse(v) for parse, v in zip(parsers, params)]
    except (TypeError, ValueError) as exc:
        raise BadParameters(f"bad parameters for {name}: {params!r}") from exc
    return build(*args)


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|[(),*^])")


def parse_catalog_expression(text: str) -> FiniteGroup:
    """Parse expressions like cyclic(2)^2*dihedral(8) into a group.

    Grammar: expr := term ('*' term)*; term := atom ('^' INT)?;
    atom := NAME '(' INT (',' INT)* ')' | '(' expr ')'.
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise InputError(f"bad catalog expression near {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("$")
    idx = 0

    def peek() -> str:
        return tokens[idx]

    def take(expected: Optional[str] = None) -> str:
        nonlocal idx
        tok = tokens[idx]
        if expected is not None and tok != expected:
            raise InputError(f"expected {expected!r} in catalog expression, got {tok!r}")
        idx += 1
        return tok

    def take_int() -> int:
        tok = take()
        if not tok.isdigit():
            raise InputError(
                f"expected an integer in catalog expression, got {tok!r}")
        return int(tok)

    def parse_atom() -> FiniteGroup:
        tok = take()
        if tok == "(":
            inner = parse_expr()
            take(")")
            return inner
        if not tok[0].isalpha() and tok[0] != "_":
            raise InputError(f"unexpected token {tok!r} in catalog expression")
        take("(")
        args = [take_int()]
        while peek() == ",":
            take(",")
            args.append(take_int())
        take(")")
        return catalog(tok, *args)

    def parse_term() -> FiniteGroup:
        g = parse_atom()
        if peek() == "^":
            take("^")
            k = take_int()
            if k < 1:
                raise InputError("power in catalog expression must be >= 1")
            out = g
            for _ in range(k - 1):
                out = direct_product(out, g)
            return out
        return g

    def parse_expr() -> FiniteGroup:
        g = parse_term()
        while peek() == "*":
            take("*")
            g = direct_product(g, parse_term())
        return g

    result = parse_expr()
    take("$")
    return result


def shipped_corpus() -> list[FiniteGroup]:
    """The default verification corpus: small groups with varied extensions."""
    s3 = _dihedral(6)
    d8 = _dihedral(8)
    groups = [
        _cyclic(2),
        _cyclic(3),
        _cyclic(4),
        _cyclic(6),
        _cyclic(8),
        _cyclic(9),
        _cyclic(12),
        _cyclic(16),
        _cyclic(32),
        _elementary_abelian(2, 2),
        _elementary_abelian(2, 3),
        _elementary_abelian(3, 2),
        s3,
        d8,
        _dihedral(12),
        _dihedral(16),
        _dihedral(32),
        _generalized_quaternion(8),
        _generalized_quaternion(16),
        _heisenberg(3),
        direct_product(_cyclic(2), _cyclic(4), name="prod_c2_c4"),
        direct_product(_cyclic(3), s3, name="prod_c3_s3"),
        direct_product(_cyclic(2), d8, name="prod_c2_d8"),
        direct_product(_cyclic(4), _cyclic(4), name="prod_c4_c4"),
        group_from_permutations(4, [(1, 2, 0, 3), (0, 2, 3, 1)], name="alt4"),
        group_from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)], name="sym4"),
        group_from_permutations(7, [(1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5)],
                                name="sdp_c7_c3"),
        semidirect_product(
            _cyclic(5), _cyclic(4),
            [tuple((x * pow(2, h, 5)) % 5 for x in range(5)) for h in range(4)],
            name="sdp_c5_c4"),
    ]
    return groups
