import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galecubics.cli import COMMANDS, main
from galecubics.fields import PrimeField
from galecubics.gale import NonSyzygeticEquation, composition_is_zero
from galecubics.serialize import (InstanceFile, equation_from_json,
                                  equation_to_json, lagrangian_from_json,
                                  lagrangian_to_json, make_instance,
                                  poly_from_json, poly_to_json, vector_to_json)


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    import io
    import sys
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        code = main(argv)
    finally:
        sys.stdin = sys.__stdin__
    out = capsys.readouterr()
    return code, out.out, out.err


FIELD = PrimeField(101)


def sample_instance(seed=0, sign=None):
    rng = random.Random(seed)
    while True:
        eq = NonSyzygeticEquation.random(FIELD, rng)
        if sign is None or eq.sign == sign:
            break
    return make_instance(FIELD, eq), eq


def test_serialization_roundtrip():
    payload, eq = sample_instance()
    again = equation_from_json(FIELD, payload["equation"])
    assert again.cubic_polynomial() == eq.cubic_polynomial()
    assert equation_to_json(again) == payload["equation"]
    from galecubics.lagrangian import lagrangian_from_gale
    data, _ = lagrangian_from_gale(eq, 1)
    cols = lagrangian_to_json(data)
    back = lagrangian_from_json(FIELD, cols)
    assert back.same_subspace(data)
    p = eq.cubic_polynomial()
    assert poly_from_json(FIELD, p.variables, poly_to_json(p)) == p


def test_gale_dual_roundtrip_through_cli(capsys, tmp_path):
    payload, eq = sample_instance(1)
    src = tmp_path / "eq.json"
    src.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, ["gale", "dual", "-i", str(src)])
    assert code == 0
    dual_payload = json.loads(out)
    dual = InstanceFile(dual_payload).equation()
    assert composition_is_zero(eq, dual)


def test_gale_dual_degenerate_exit_code(capsys, tmp_path):
    payload, eq = sample_instance(2)
    # collapse the instance to a rank-deficient tuple
    row = payload["equation"]["matrix"][0]
    payload["equation"]["matrix"] = [row] * 9
    payload["equation"]["linear_forms"] = [row] * 3
    src = tmp_path / "degenerate.json"
    src.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, ["gale", "dual", "-i", str(src)])
    assert code == 2
    assert "degenerate tuple" in err


def test_gale_validate_exit_codes(capsys, tmp_path):
    payload, _ = sample_instance(3)
    src = tmp_path / "ok.json"
    src.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, ["gale", "validate", "-i", str(src)])
    assert code == 0 and json.loads(out)["ok"]


def test_lagrangian_pipeline(capsys, tmp_path):
    payload, eq = sample_instance(4)
    src = tmp_path / "eq.json"
    src.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, ["lagrangian", "from-gale", "-i", str(src),
                                    "--choice-of-L", "2"])
    assert code == 0
    produced = json.loads(out)
    assert produced["sigma_normal_form"] and produced["alpha_zero"]
    lag = tmp_path / "lag.json"
    lag.write_text(json.dumps(produced))
    code, out, _ = run_cli(capsys, ["lagrangian", "check", "-i", str(lag)])
    assert code == 0

    # a corrupted subspace fails with named conditions
    produced["lagrangian"][0][0] = (produced["lagrangian"][0][0] + 1) % 101
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(produced))
    code, out, _ = run_cli(capsys, ["lagrangian", "check", "-i", str(bad)])
    assert code == 1
    assert json.loads(out)["failures"]


@pytest.mark.parametrize("broken", ["alpha", "sigma"])
def test_lagrangian_from_gale_fails_on_either_check(capsys, tmp_path, monkeypatch,
                                                    broken):
    # exit code 1 means a check is false: either one, not only sigma
    from galecubics.lagrangian import QPPresentation
    payload, _ = sample_instance(4)
    src = tmp_path / "eq.json"
    src.write_text(json.dumps(payload))
    check = {"alpha": "alpha_is_zero", "sigma": "sigma_is_normal"}[broken]
    monkeypatch.setattr(QPPresentation, check, lambda self: False)
    code, out, _ = run_cli(capsys, ["lagrangian", "from-gale", "-i", str(src)])
    produced = json.loads(out)
    assert code == 1
    assert produced["alpha_zero"] is (broken != "alpha")
    assert produced["sigma_normal_form"] is (broken != "sigma")


def test_epw_commands(capsys, tmp_path):
    payload, eq = sample_instance(5, sign=1)
    src = tmp_path / "eq.json"
    src.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, ["epw", "harvest", "-i", str(src),
                                    "--samples", "3", "--seed", "7"])
    assert code == 0
    points = json.loads(out)["points"]
    assert len(points) == 3

    code, out, _ = run_cli(capsys, ["lagrangian", "from-gale", "-i", str(src)])
    inst = json.loads(out)
    inst["point"] = points[0]
    full = tmp_path / "full.json"
    full.write_text(json.dumps(inst))
    code, out, _ = run_cli(capsys, ["epw", "contains", "-i", str(full)])
    assert code == 0 and json.loads(out)["member"]

    code, out, _ = run_cli(capsys, ["epw", "conic", "-i", str(full)])
    assert code == 0 and json.loads(out)["singular"]

    inst["line"] = [[1, 2, 3, 4, 5, 6], [9, 17, 4, 88, 33, 1]]
    full.write_text(json.dumps(inst))
    code, out, _ = run_cli(capsys, ["epw", "line-degree", "-i", str(full)])
    assert code == 0 and json.loads(out)["degree"] == 6


def test_fano_point_line_commands(capsys, tmp_path):
    import random as _random
    from galecubics.lagrangian import lagrangian_from_gale
    from galecubics.epw import epw_to_lines, harvest_epw_points
    payload, eq = sample_instance(8, sign=1)
    data, _ = lagrangian_from_gale(eq, 1)
    rng = _random.Random(3)
    split = None
    for hp in harvest_epw_points(eq, 1, data, rng, 10):
        split = epw_to_lines(eq, 1, hp.point)
        if split.lines is not None:
            point = hp.point
            break
    assert split is not None and split.lines is not None
    pts = split.lines[0].parametrization()
    payload["line"] = [[int(x) for x in pts.column(j)] for j in range(2)]
    src = tmp_path / "line.json"
    src.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, ["fano", "to-epw", "-i", str(src)])
    assert code == 0
    recovered = json.loads(out)["point"]
    assert [FIELD.from_json(c) for c in recovered] == list(point.coords)

    payload["point"] = [int(c) for c in point.coords]
    src.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, ["fano", "from-epw", "-i", str(src)])
    assert code == 0
    result = json.loads(out)
    assert result["split"] and result["conic_rank"] <= 2


def test_fano_roundtrip_command(capsys, tmp_path):
    payload, eq = sample_instance(6, sign=1)
    src = tmp_path / "eq.json"
    src.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, ["fano", "roundtrip", "-i", str(src),
                                    "--samples", "6", "--seed", "11"])
    assert code == 0
    stats = json.loads(out)
    assert stats["attempted"] == stats["succeeded"] > 0


def test_fano_roundtrip_counts_a_degenerate_line_as_failed():
    # one harvested line of this valid instance lies inside L_1 = 0, so
    # line_to_epw refuses it: the check is false, the input is not bad
    code, out, err = run_quiet(["fano", "roundtrip", "--seed", "0"],
                               sweep_instance("prime:7"))
    assert code == 1 and err == ""
    assert json.loads(out) == {"attempted": 28, "succeeded": 27}


def test_a_key_error_is_a_bug_not_bad_input(monkeypatch):
    from galecubics import cli

    def broken(args):
        raise KeyError("missing table entry")

    monkeypatch.setattr(cli, "cmd_lattice_count", broken)
    with pytest.raises(KeyError, match="missing table entry"):
        main(["lattice", "count"])


def test_lattice_commands(capsys):
    code, out, _ = run_cli(capsys, ["lattice", "count"])
    assert code == 0 and out.strip() == "24"
    code, out, _ = run_cli(capsys, ["lattice", "orbits"])
    assert code == 0
    table = json.loads(out)
    assert table["partner_count"] == 2


def test_gm_membership_command(capsys):
    code, out, _ = run_cli(capsys, ["gm", "membership", "--side", "F"])
    assert code == 0 and json.loads(out)["certificate_exists"]


def test_a4_emit_verify_and_pipe(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["a4", "emit", "--params", "1,2,1,1,1",
                                    "--field", "prime:97"])
    assert code == 0
    payload = json.loads(out)
    inst = tmp_path / "a4.json"
    inst.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, ["gale", "validate", "-i", str(inst)])
    assert code == 0
    code, out, _ = run_cli(capsys, ["smooth", "check", "-i", str(inst)])
    assert code == 0 and json.loads(out)["smooth"]
    code, out, _ = run_cli(capsys, ["a4", "verify", "--field", "prime:97"])
    assert code == 0


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run_cli(capsys, [])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("params", ["1/0,1,1,1,1", "1.5,1,1,1,1", "1,x,1,1,1"])
def test_malformed_params_exit_2_with_one_line(capsys, params):
    code, out, err = run_cli(capsys, ["a4", "emit", "--field", "rationals",
                                      "--params", params])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["-3", "0", "two"])
def test_samples_must_be_positive(capsys, tmp_path, value):
    payload, _ = sample_instance(5, sign=1)
    src = tmp_path / "eq.json"
    src.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["epw", "harvest", "-i", str(src), "--samples", value])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: argument --samples:")
    assert out.err.count("\n") == 1


def test_missing_input_reports_usage_error(capsys):
    code, _, err = run_cli(capsys, ["gale", "dual"], stdin="")
    assert code == 2
    assert "no input instance" in err


@pytest.mark.parametrize("argv", [["smooth", "check"], ["gale", "dual"],
                                  ["lagrangian", "from-gale", "--choice-of-L", "1"]])
def test_unreadable_input_file_exits_2(capsys, tmp_path, argv):
    for path in (tmp_path / "missing.json", tmp_path):   # absent; a directory
        code, out, err = run_cli(capsys, argv + ["-i", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read input:") and err.count("\n") == 1


def test_invariants_selftest_command(capsys):
    code, out, _ = run_cli(capsys, ["invariants", "selftest"])
    assert code == 0 and json.loads(out)["sigma_identity"]


# -- malformed instances ------------------------------------------------------

def run_quiet(argv, stdin):
    """``main`` on a piped instance, with both streams captured."""
    import contextlib
    import io
    import sys
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = sys.__stdin__
    return code, out.getvalue(), err.getvalue()


BAD_INPUT_COMMANDS = [["gale", "dual"], ["lagrangian", "from-gale", "--choice-of-L", "1"]]


def assert_one_line_error(argv, payload, message=None):
    code, out, err = run_quiet(argv, json.dumps(payload))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if message is not None:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", BAD_INPUT_COMMANDS)
def test_malformed_instances_exit_2(argv):
    payload, _ = sample_instance(2)
    assert_one_line_error(argv, {"field": 7},
                          "field descriptor must be a string, not 7")
    assert_one_line_error(argv, {"field": "prime:101", "equation": 5},
                          "equation must be a JSON object, not int")
    for key in ("matrix", "linear_forms"):
        broken = json.loads(json.dumps(payload))
        del broken["equation"][key]
        assert_one_line_error(argv, broken, f"missing key {key!r}")
    for sign in ("1", 1.0, True, 2):
        broken = json.loads(json.dumps(payload))
        broken["equation"]["sign"] = sign
        assert_one_line_error(argv, broken, f"sign must be 1 or -1, not {sign!r}")


def parses_as_int(value):
    try:
        int(value)
    except ValueError:
        return False
    return True


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)

# (path into the instance, values of the wrong shape for that place); a path
# ending in None deletes the key
DAMAGE = [
    ((), json_values.filter(lambda v: not isinstance(v, dict))),
    (("field",), json_values.filter(lambda v: not isinstance(v, str))),
    (("equation",), json_values.filter(lambda v: not isinstance(v, dict))),
    (("equation", "matrix"), json_values.filter(
        lambda v: not (isinstance(v, list) and len(v) == 9))),
    (("equation", "linear_forms"), json_values.filter(
        lambda v: not (isinstance(v, list) and len(v) == 3))),
    (("equation", "matrix", 4), json_values.filter(
        lambda v: not (isinstance(v, list) and len(v) == 6))),
    (("equation", "linear_forms", 2), json_values.filter(
        lambda v: not (isinstance(v, list) and len(v) == 6))),
    (("equation", "matrix", 7, 3), json_values.filter(
        lambda v: isinstance(v, bool) or not isinstance(v, int)
        and not (isinstance(v, str) and parses_as_int(v)))),
    (("equation", "sign"), json_values.filter(
        lambda v: type(v) is not int or v not in (1, -1))),
    (("equation", "variables"), json_values.filter(
        lambda v: not (isinstance(v, list) and len(v) == 6))),
    (("equation", "matrix", None), st.none()),
    (("equation", "linear_forms", None), st.none()),
]


def damage(payload, path, value):
    """``payload`` with the value at ``path`` replaced (deleted when the path
    ends in None)."""
    if not path:
        return value
    *parents, last = path
    if last is None:
        *parents, last = parents
    node = payload
    for step in parents:
        node = node[step]
    if path[-1] is None:
        del node[last]
    else:
        node[last] = value
    return payload


@st.composite
def damaged_instances(draw):
    payload, _ = sample_instance(3)
    path, values = draw(st.sampled_from(DAMAGE))
    return damage(payload, path, draw(values))


@settings(max_examples=150, deadline=None)
@given(damaged_instances(), st.sampled_from(BAD_INPUT_COMMANDS))
def test_wrongly_shaped_instances_give_one_error_line(payload, argv):
    assert_one_line_error(argv, payload)


# -- the point, line and subspace inputs ------------------------------------

@functools.lru_cache(maxsize=None)
def point_line_instances():
    """JSON text of a subspace instance with a member point, and of an
    equation instance with a line on its cubic (each command exits 0 on
    it), so that a damaged copy fails only because of the damage."""
    from galecubics.epw import epw_to_lines, harvest_epw_points
    from galecubics.lagrangian import lagrangian_from_gale
    _, eq = sample_instance(8, sign=1)
    data, _ = lagrangian_from_gale(eq, 1)
    for hp in harvest_epw_points(eq, 1, data, random.Random(3), 10):
        split = epw_to_lines(eq, 1, hp.point)
        if split.lines is not None:
            break
    pts = split.lines[0].parametrization()
    with_point = make_instance(FIELD, eq, data,
                               extra={"point": [int(c) for c in hp.point.coords]})
    with_line = make_instance(FIELD, eq, extra={
        "line": [[int(x) for x in pts.column(j)] for j in range(2)]})
    return json.dumps(with_point), json.dumps(with_line)


def is_six_ints(value):
    return (isinstance(value, list) and len(value) == 6
            and all(type(v) is int or isinstance(v, str) and parses_as_int(v)
                    for v in value))


def is_point_text(text):
    """Whether ``--point`` would accept the text as six integers."""
    tokens = [tok.strip() for tok in text.split(",")]
    return len(tokens) == 6 and all(parses_as_int(tok) for tok in tokens)


not_a_coordinate = json_values.filter(
    lambda v: isinstance(v, bool) or not isinstance(v, int)
    and not (isinstance(v, str) and parses_as_int(v)))

# command, the instance it reads (0: subspace and point, 1: equation and
# line), and (path, wrongly shaped values) pairs as in DAMAGE
POINT_LINE_DAMAGE = [
    (["epw", "contains"], 0, [
        (("point",), json_values.filter(lambda v: not is_six_ints(v))),
        (("point", 2), not_a_coordinate),
        (("point", None), st.none()),
        (("lagrangian",), json_values.filter(lambda v: not isinstance(v, list))),
    ]),
    (["fano", "to-epw"], 1, [
        (("line",), json_values.filter(
            lambda v: not (isinstance(v, list) and len(v) == 2))),
        (("line", 1), json_values.filter(lambda v: not is_six_ints(v))),
        (("line", 0, 4), not_a_coordinate),
        (("line", None), st.none()),
        (("equation",), json_values.filter(lambda v: not isinstance(v, dict))),
    ]),
    (["lagrangian", "check"], 0, [
        (("lagrangian",), json_values.filter(lambda v: not isinstance(v, list))
         | st.just([])),
        (("lagrangian", 3), json_values.filter(
            lambda v: not (isinstance(v, list) and len(v) == 20))),
        (("lagrangian", 5, 7), not_a_coordinate),
        (("lagrangian", None), st.none()),
    ]),
]


@st.composite
def damaged_point_line_commands(draw):
    argv, which, table = draw(st.sampled_from(POINT_LINE_DAMAGE))
    path, values = draw(st.sampled_from(table))
    payload = json.loads(point_line_instances()[which])
    return argv, damage(payload, path, draw(values))


def test_point_line_instances_are_accepted():
    with_point, with_line = point_line_instances()
    for argv, text in ((["epw", "contains"], with_point),
                       (["fano", "to-epw"], with_line),
                       (["lagrangian", "check"], with_point)):
        code, _, err = run_quiet(argv, text)
        assert code == 0 and err == ""


@settings(max_examples=120, deadline=None)
@given(damaged_point_line_commands())
def test_wrongly_shaped_points_lines_and_subspaces_give_one_error_line(case):
    argv, payload = case
    assert_one_line_error(argv, payload)


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=30).filter(lambda t: not is_point_text(t)))
def test_malformed_point_option_gives_one_error_line(text):
    code, out, err = run_quiet(["epw", "contains", f"--point={text}"],
                               point_line_instances()[0])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("text", ["0,0,0,0,0,0", "1,2,3,4,5", "1,2,3,4,5,6,7",
                                  "1,2,x,4,5,6", "1,2,1/2,4,5,6", "1.5,1,1,1,1,1"])
def test_point_option_errors(text):
    code, out, err = run_quiet(["epw", "contains", f"--point={text}"],
                               point_line_instances()[0])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["lagrangian", "check"], ["epw", "contains"]])
def test_empty_subspace_is_malformed(argv):
    payload = json.loads(point_line_instances()[0])
    payload["lagrangian"] = []
    assert_one_line_error(argv, payload, "lagrangian lists no columns")


# -- the field of an instance -------------------------------------------------

@pytest.mark.parametrize("argv", [["gale", "dual"], ["smooth", "check"]])
def test_field_option_must_match_the_instance(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, ["a4", "emit", "--field", "prime:97"])
    assert code == 0
    src = tmp_path / "family.json"
    src.write_text(out)
    for field in ("rationals", "prime:101", "cyclotomic3:5"):
        code, out, err = run_cli(capsys, argv + ["-i", str(src), "--field", field])
        assert code == 2 and out == ""
        assert err.startswith("error: --field") and err.count("\n") == 1, err
    code, out, err = run_cli(capsys, argv + ["-i", str(src), "--field", "prime:97"])
    assert code == 0 and err == ""
    assert run_cli(capsys, argv + ["-i", str(src)])[1] == out


def test_huge_prime_is_refused_at_once():
    import subprocess
    import sys
    import time
    payload = '{"field": "prime:2305843009213693951", "equation": {}}'
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "galecubics.cli", "gale", "dual"],
                          input=payload, capture_output=True, text=True,
                          timeout=5)
    assert time.perf_counter() - start < 5
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: missing key 'matrix'\n"
    too_big = payload.replace("2305843009213693951", str(2 ** 89 - 1))
    code, out, err = run_quiet(["gale", "dual"], too_big)
    assert code == 2 and out == ""
    assert "too large to certify" in err and err.count("\n") == 1


# -- every subcommand in small characteristic --------------------------------

SWEEP_FIELDS = ["prime:2", "prime:3", "cyclotomic3:2", "prime:5", "prime:7",
                "rationals"]
# the lattice commands read neither a field nor an instance (see
# test_lattice_commands), and ``selftest all`` runs the acceptance checks
SWEEP_COMMANDS = [[group, name] for group, name in COMMANDS
                  if group not in ("lattice", "selftest")]


@functools.lru_cache(maxsize=None)
def sweep_instance(descriptor):
    """JSON text of a seeded instance over the field: an equation tuple, its
    admissible subspace for L_1, a nonzero point and a line through two
    nonzero points."""
    from galecubics.fields import parse_field
    from galecubics.lagrangian import SplittingError, lagrangian_from_gale
    field = parse_field(descriptor)
    rng = random.Random(f"sweep:{descriptor}")
    while True:
        eq = NonSyzygeticEquation.random(field, rng)
        try:
            data, _ = lagrangian_from_gale(eq, 1)
            break
        except SplittingError:    # dependent trailing L forms
            continue

    def covector():
        while True:
            vec = [field.random(rng) for _ in range(6)]
            if any(not field.is_zero(c) for c in vec):
                return vector_to_json(field, vec)

    return json.dumps(make_instance(field, eq, data, extra={
        "point": covector(), "line": [covector(), covector()]}))


@pytest.mark.parametrize("descriptor", SWEEP_FIELDS)
def test_every_subcommand_exits_cleanly_in_small_characteristic(descriptor):
    text = sweep_instance(descriptor)
    for argv in SWEEP_COMMANDS:
        code, _, err = run_quiet(argv + ["--field", descriptor, "--samples", "2"],
                                 text)
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("argv", [
    ["a4", "emit", "--field", "prime:3"],
    ["a4", "verify", "--field", "prime:3"],
    ["a4", "verify", "--field", "cyclotomic3:2"],
    ["lagrangian", "from-gale", "--field", "cyclotomic3:2"],
])
def test_unsupported_characteristic_exits_2(argv):
    code, out, err = run_quiet(argv, sweep_instance("cyclotomic3:2"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "characteristic other than 2" in err


@pytest.mark.parametrize("descriptor, code", [("prime:5", 2), ("prime:7", 1)])
def test_line_degree_on_a_coordinate_plane(descriptor, code):
    # every point of the pencil is a member: over GF(7) seven of them show
    # that the divisor is zero, over GF(5) the six points of P^1 do not
    payload = json.loads(sweep_instance(descriptor))
    payload["line"] = [[0, 0, 0, 1, 2, 3], [0, 0, 0, 0, 1, 4]]
    got, out, err = run_quiet(["epw", "line-degree"], json.dumps(payload))
    assert got == code
    if code == 2:
        assert out == "" and err.count("\n") == 1 and "undecided" in err
    else:
        assert err == "" and json.loads(out)["polynomial"] == []


def test_smooth_check_refuses_the_rationals():
    """No good-prime reduction runs inside ``smooth check``: a rational
    instance exits 2, and the caller reduces it at a prime first."""
    code, out, err = run_quiet(["smooth", "check"], sweep_instance("rationals"))
    assert code == 2 and out == ""
    assert err == "error: smoothness check runs over prime fields only\n"
