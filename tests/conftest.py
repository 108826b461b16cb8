import random

import pytest

from galecubics.fields import QQ, PrimeField, cyclotomic3
from galecubics.linalg import Matrix


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
