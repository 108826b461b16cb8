"""JSON interchange for instances: bit-exact round-tripping.

Rationals are ``"num/den"`` strings, prime-field elements integers in
``[0, p)``, cyclotomic elements ``[a, b]`` pairs meaning ``a + b*zeta``.
Polynomials are lists of ``[coefficient, exponent-vector]`` sorted by
exponent vector; matrices are row lists; a subspace spanning matrix is
stored column by column.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .equivariant import A4FamilyParams
from .fields import Field, parse_field
from .gale import NonSyzygeticEquation
from .lagrangian import RhoLagrangianData, validate
from .linalg import Matrix
from .poly import MultiPoly


def poly_to_json(p: MultiPoly) -> list:
    field = p.field
    return [[field.to_json(c), list(mono)] for mono, c in
            sorted(p.terms.items())]


def _key(data: dict, key: str):
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"missing key {key!r}") from None


def _list(data, what: str, length: Optional[int] = None) -> list:
    """``data`` when it is a JSON list (of ``length`` items, if given)."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a list, not {type(data).__name__}")
    if length is not None and len(data) != length:
        raise ValueError(f"{what} must have {length} entries, not {len(data)}")
    return data


def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    return data


def poly_from_json(field: Field, variables: Sequence[str], data: list) -> MultiPoly:
    terms = {}
    for coeff, mono in data:
        terms[tuple(int(e) for e in mono)] = field.from_json(coeff)
    return MultiPoly(field, variables, terms)


def matrix_to_json(m: Matrix) -> list:
    return [[m.field.to_json(x) for x in row] for row in m.data]


def vector_to_json(field: Field, v: Sequence) -> list:
    return [field.to_json(x) for x in v]


def vector_from_json(field: Field, data: list) -> List:
    return [field.from_json(x) for x in _list(data, "vector")]


def equation_to_json(eq: NonSyzygeticEquation) -> dict:
    field = eq.field
    return {
        "variables": list(eq.variables),
        "matrix": [vector_to_json(field, row) for row in eq.coeffs.data[:9]],
        "linear_forms": [vector_to_json(field, row) for row in eq.coeffs.data[9:]],
        "sign": eq.sign,
    }


def equation_from_json(field: Field, data: dict) -> NonSyzygeticEquation:
    data = _object(data, "equation")
    variables = data.get("variables", ["X0", "X1", "X2", "X3", "X4", "X5"])
    if (not isinstance(variables, list) or len(variables) != 6
            or not all(isinstance(v, str) for v in variables)
            or len(set(variables)) != 6):
        raise ValueError("variables must be a list of six distinct names")
    rows = [vector_from_json(field, r) for r in
            _list(_key(data, "matrix"), "matrix", 9)
            + _list(_key(data, "linear_forms"), "linear_forms", 3)]
    sign = data.get("sign", 1)
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, not {sign!r}")
    return NonSyzygeticEquation.from_coefficients(field, rows, sign, variables)


def lagrangian_to_json(data: RhoLagrangianData) -> list:
    return [vector_to_json(data.field, data.matrix.column(j))
            for j in range(data.matrix.cols)]


def lagrangian_from_json(field: Field, columns: list) -> RhoLagrangianData:
    cols = [vector_from_json(field, col) for col in _list(columns, "lagrangian")]
    if not cols:
        raise ValueError("lagrangian lists no columns")
    for col in cols:
        if len(col) != 20:
            raise ValueError("subspace columns must have 20 coordinates")
    return validate(field, Matrix.from_columns(field, cols))


class InstanceFile:
    """Typed view of the interchange JSON object."""

    def __init__(self, payload: dict):
        self.payload = _object(payload, "instance")
        self.field: Field = parse_field(payload.get("field", "rationals"))

    def equation(self) -> NonSyzygeticEquation:
        if "equation" not in self.payload:
            raise ValueError("instance carries no equation")
        return equation_from_json(self.field, self.payload["equation"])

    def lagrangian(self) -> RhoLagrangianData:
        if "lagrangian" not in self.payload:
            raise ValueError("instance carries no lagrangian")
        return lagrangian_from_json(self.field, self.payload["lagrangian"])

    def point(self, override: Optional[str] = None):
        from .epw import EPWPoint
        if override is not None:
            vals = [self.field.from_json(_parse_scalar(tok))
                    for tok in override.split(",")]
            return EPWPoint.make(self.field, vals)
        if "point" not in self.payload:
            raise ValueError("no point given (instance field 'point' or --point)")
        return EPWPoint.make(self.field,
                             vector_from_json(self.field, self.payload["point"]))

    def line_points(self):
        if "line" not in self.payload:
            raise ValueError("no line given (instance field 'line': two points)")
        pts = [vector_from_json(self.field, p)
               for p in _list(self.payload["line"], "line", 2)]
        if any(len(p) != 6 for p in pts):
            raise ValueError("line points must have six coordinates")
        return pts

    def params(self) -> A4FamilyParams:
        raw = self.payload.get("params")
        if raw is None:
            raise ValueError("instance carries no family parameters")
        raw = _object(raw, "params")
        k = self.field
        xi = (k.from_json(raw["xi"]) if "xi" in raw
              else k.cube_root_of_unity())
        return A4FamilyParams(k, *(k.from_json(_key(raw, name)) for name in
                                   ("alpha", "beta", "gamma", "delta", "lambda")),
                              xi)


def _parse_scalar(token: str):
    token = token.strip()
    if "/" in token:
        return token
    try:
        return int(token)
    except ValueError:
        return token


def make_instance(field: Field, eq: Optional[NonSyzygeticEquation] = None,
                  lagrangian: Optional[RhoLagrangianData] = None,
                  extra: Optional[dict] = None) -> dict:
    out: Dict[str, Any] = {"field": field.descriptor}
    if eq is not None:
        out["equation"] = equation_to_json(eq)
        out["variables"] = list(eq.variables)
    if lagrangian is not None:
        out["lagrangian"] = lagrangian_to_json(lagrangian)
    if extra:
        out.update(extra)
    return out
