import random
from fractions import Fraction
from math import lcm, prod
from operator import lshift

import pytest

from galecubics.fields import QQ, PrimeField, RationalField, cyclotomic3
from galecubics.linalg import Matrix, _integer_row
from galecubics.poly import MultiPoly


@pytest.fixture(params=["rationals", "prime:101", "prime:97"])
def field(request):
    from galecubics.fields import parse_field
    return parse_field(request.param)


@pytest.fixture
def rng():
    return random.Random(1234)


def random_unimodular3(field, rng):
    m = Matrix.identity(field, 3)
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        e = Matrix.identity(field, 3)
        e.data[i][j] = field.random(rng)
        m = m * e
    return m


ALL_FIELDS = [QQ, PrimeField(97), PrimeField(101), cyclotomic3(QQ),
              cyclotomic3(PrimeField(101))]


def wedge_all(elements):
    out = elements[0]
    for x in elements[1:]:
        out = out.wedge(x)
    return out


def reference_induced_grade3_matrix(field, g6, coords="frame"):
    """The Lambda^3 action of a 6x6 matrix computed columnwise as wedges of
    the images of the basis vectors: the oracle of the compound-matrix
    route of ``exterior.induced_grade3_matrix``."""
    from galecubics.exterior import (DIM, GRADE3_TRIPLES, ExteriorElement,
                                     frame_coordinates, from_frame_coordinates,
                                     lex3_coordinates)
    images = [ExteriorElement.vector(field, [g6[i][j] for i in range(DIM)])
              for j in range(DIM)]
    if coords == "frame":
        convert = frame_coordinates
        source = [from_frame_coordinates(
            field, [field.one() if i == j else field.zero() for i in range(20)])
            for j in range(20)]
    else:
        convert = lex3_coordinates
        source = [ExteriorElement(field, 3, {t: field.one()})
                  for t in GRADE3_TRIPLES]
    cols = []
    for elem in source:
        image = ExteriorElement(field, 3)
        for t, c in elem.terms.items():
            image = image + wedge_all([images[i] for i in t]).scale(c)
        cols.append(convert(image))
    return Matrix.from_columns(field, cols)


def reference_validate(field, candidate):
    """The admissibility check by separate eliminations: the canonical span,
    the two block kernels of its 10x10 halves and the canonical bases of
    their images.  The oracle of the two-echelon-form route of
    ``lagrangian.validate``."""
    from galecubics.lagrangian import (LagrangianValidationError,
                                       RhoLagrangianData, symplectic_blocks)

    def canonical_columns(m):
        return m.transpose().row_space().transpose()

    failures = []
    if candidate.rows != 20:
        raise LagrangianValidationError(["matrix must have 20 rows (frame coordinates)"])
    span = canonical_columns(candidate)
    if span.cols != 10:
        raise LagrangianValidationError(
            [f"dimension: expected 10, got {span.cols}"])
    top, bottom = symplectic_blocks(span)
    pairing = (top.transpose() * bottom).data
    if any(pairing[i][j] != pairing[j][i]
           for i in range(10) for j in range(i + 1, 10)):
        failures.append("lagrangian: wedge pairing does not vanish on the subspace")
    a_e_coords = bottom.kernel_basis()
    a_f_coords = top.kernel_basis()
    if a_e_coords.cols != 4:
        failures.append(f"rho-dimension-E: expected 4, got {a_e_coords.cols}")
    if a_f_coords.cols != 4:
        failures.append(f"rho-dimension-F: expected 4, got {a_f_coords.cols}")
    if failures:
        raise LagrangianValidationError(failures)
    a_e = canonical_columns(span * a_e_coords)
    a_f = canonical_columns(span * a_f_coords)
    return RhoLagrangianData(field, span, a_e, a_f)


# -- the determinant divisor of a pencil by elimination over k[t] -------------

def _trim(field, coeffs):
    while coeffs and field.is_zero(coeffs[-1]):
        coeffs.pop()
    return coeffs


def univariate_divmod(field, a, b):
    """Quotient and remainder of univariate coefficient lists (low first)."""
    b = _trim(field, list(b))
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    r = _trim(field, list(a))
    db, lead = len(b) - 1, b[-1]
    q = [field.zero()] * max(len(r) - db, 0)
    while r and len(r) - 1 >= db:
        f = field.div(r[-1], lead)
        shift = len(r) - 1 - db
        q[shift] = f
        for i, c in enumerate(b):
            r[shift + i] = field.sub(r[shift + i], field.mul(f, c))
        r = _trim(field, r)
    return _trim(field, q), r


def univariate_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _trim(field, out)


def univariate_sub(field, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero()
        y = b[i] if i < len(b) else field.zero()
        out.append(field.sub(x, y))
    return _trim(field, out)


def _divisor_by_elimination(field, c0, c1):
    """The determinant divisor of the 10 x 15 pencil c0 + t*c1 by
    unimodular elimination over the univariate polynomial ring: diagonalise
    with division-with-remainder pivots; the product of the pivots is the
    divisor.  The oracle of the re-based constant reduction of
    ``epw._determinant_divisor_on_pencil``."""
    entries = [[_trim(field, [a, b]) for a, b in zip(row0, row1)]
               for row0, row1 in zip(c0.data, c1.data)]
    rows, cols = 10, 15
    divisor = [field.one()]
    for step in range(rows):
        while True:
            pivot = None
            for i in range(step, rows):
                for j in range(step, cols):
                    if entries[i][j] and (pivot is None
                                          or len(entries[i][j]) < len(
                                              entries[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                return []   # rank below 10 along the whole pencil
            pi, pj = pivot
            entries[step], entries[pi] = entries[pi], entries[step]
            for row in entries:
                row[step], row[pj] = row[pj], row[step]
            head = entries[step][step]
            clean = True
            for i in range(step + 1, rows):
                if not entries[i][step]:
                    continue
                q, _ = univariate_divmod(field, entries[i][step], head)
                for j in range(step, cols):
                    entries[i][j] = univariate_sub(
                        field, entries[i][j],
                        univariate_mul(field, q, entries[step][j]))
                if entries[i][step]:
                    clean = False
            for j in range(step + 1, cols):
                if not entries[step][j]:
                    continue
                q, _ = univariate_divmod(field, entries[step][j], head)
                for i in range(step, rows):
                    entries[i][j] = univariate_sub(
                        field, entries[i][j],
                        univariate_mul(field, q, entries[i][step]))
                if entries[step][j]:
                    clean = False
            if clean:
                break
        divisor = univariate_mul(field, divisor, entries[step][step])
    lead = divisor[-1]
    inv = field.inv(lead)
    return [field.mul(inv, c) for c in divisor]


# -- the per-call packed substitution kernel --------------------------------

def reference_subs(self, images):
    """The per-call packed expansion that ``MultiPoly.subs`` ran before
    ``poly.Substitution``, kept as the differential oracle of
    ``Substitution.pull_back``: variable ``i`` replaced by ``images[i]``.

    Each source term is expanded factor by factor into one accumulator
    keyed by packed monomials; over QQ the images are scaled to integers
    and the sum is kept over one common denominator."""
    if len(images) != len(self.variables):
        raise ValueError("need one image per variable")
    if not images:
        raise ValueError("empty variable list")
    k, target = self.field, images[0].variables
    if any(img.field != k or img.variables != target for img in images):
        raise ValueError("images live in different rings")
    width = (self.total_degree()
             * max(img.total_degree() for img in images)).bit_length()
    shifts = [width * j for j in range(len(target))]
    rational = isinstance(k, RationalField)
    rows = [list(img.terms.values()) for img in images]
    source = list(self.terms.values())
    if rational:
        rows, dens = zip(*map(_integer_row, rows))
        tdens = [c.denominator * prod(map(pow, dens, m))
                 for m, c in self.terms.items()]
        den = lcm(*tdens)
        source = [c.numerator * (den // t) for c, t in zip(source, tdens)]
    packed = [[(sum(map(lshift, m, shifts)), c) for m, c in zip(img.terms, row)]
              for img, row in zip(images, rows)]
    add, mul, zero, one = k.add, k.mul, k.zero(), 1 if rational else k.one()
    acc = {}
    for mono, c in zip(self.terms, source):
        factors = [packed[i] for i, e in enumerate(mono) for _ in range(e)]
        left = [(0, c)]
        for j, img in enumerate(factors or [[(0, one)]], 1):
            dst = acc if j >= len(factors) else {}
            get = dst.get
            for m1, c1 in left:
                for m2, c2 in img:
                    m = m1 + m2
                    if rational:
                        dst[m] = get(m, 0) + c1 * c2
                    else:
                        dst[m] = add(get(m, zero), mul(c1, c2))
            left = dst.items()
    mask = (1 << width) - 1
    out = MultiPoly(k, target)
    out.terms = {tuple([(m >> s) & mask for s in shifts]):
                 Fraction(v, den) if rational else v
                 for m, v in acc.items() if not k.is_zero(v)}
    return out
