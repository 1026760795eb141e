"""One input policy for vertex sets and vertex fields at every entry point.

A vertex set (Omega, a boundary, Nagata points, a field's keys) must be
nonempty, with known and distinct ids; an id that is not an int (a
float, a bool) is unknown.  A field must have a number at every vertex
it is read at, and a string, bytes or a bool is not one, though numpy
reads them as numbers; NaN is never accepted, an infinity only
where noted.  The first failure in ascending id order is named, and set
errors come before value errors.
"""

import math

import numpy as np
import pytest

from mmgraph import (
    AMLEProblem,
    InputError,
    VectorField,
    as_vector_field,
    doubling_ratios,
    hajlasz_gradient_from_upper,
    infinity_harmonic_extend,
    lipschitz_constant,
    local_to_global_gradient,
    mcshane_extend,
    nagata_cover,
    poincare_constant,
    quasiconvexity_constant,
    solve_amle,
    truncate_extend,
    vector_lipschitz_constant,
    verify_hajlasz,
    whitney_cover,
    whitney_extend,
)

from conftest import path_graph

G = path_graph(5)
COVER = whitney_cover(G, [0, 4])
PROBLEM = AMLEProblem(G, (0, 4), {0: 0.0, 4: 1.0})
TOTAL = {v: 1.0 for v in range(5)}


def _vf(f):
    return VectorField({v: (x,) for v, x in f.items()})


#: name -> (call(vertices, field), set name, field name, vertices, field,
#: vertex the field cases spoil, whether the field may be infinite).  A
#: None name means the site reads no such input.
SITES = {
    "mcshane_extend": (
        lambda om, f: mcshane_extend(G, om, f),
        "Omega", "boundary data", [0, 4], {0: 0.0, 4: 1.0}, 4, False,
    ),
    "truncate_extend": (
        lambda om, f: truncate_extend(G, om, f),
        "Omega", "boundary data", [0, 4], {0: 0.0, 4: 1.0}, 4, False,
    ),
    "whitney_cover": (
        lambda om, f: whitney_cover(G, om), "Omega", None, [0, 4], None, None, False,
    ),
    "whitney_extend": (
        lambda om, f: whitney_extend(G, om, _vf(f), COVER),
        "Omega", "boundary data", [0, 4], {0: 0.0, 4: 1.0}, 4, False,
    ),
    "nagata_cover": (
        lambda om, f: nagata_cover(G, 1.0, points=om), "points", None, [0, 4], None, None, False,
    ),
    "AMLEProblem": (
        lambda om, f: AMLEProblem(G, tuple(om), f),
        "boundary", "boundary data", [0, 4], {0: 0.0, 4: 1.0}, 4, False,
    ),
    "infinity_harmonic_extend": (
        lambda om, f: infinity_harmonic_extend(G, om, f),
        "Omega", "g", [1, 2, 3], {0: 0.0, 4: 1.0}, 4, False,
    ),
    "solve_amle init": (
        lambda om, f: solve_amle(PROBLEM, init=f),
        None, "init field", None, {1: 0.2, 2: 0.5, 3: 0.8}, 2, False,
    ),
    "poincare_constant u": (
        lambda om, f: poincare_constant(G, f, TOTAL, 1.0, 1.0),
        None, "u", None, TOTAL, 2, False,
    ),
    "poincare_constant rho": (
        lambda om, f: poincare_constant(G, TOTAL, f, 1.0, 1.0),
        None, "rho", None, TOTAL, 2, True,
    ),
    "hajlasz_gradient_from_upper rho": (
        lambda om, f: hajlasz_gradient_from_upper(G, f, 1.0, 1.0),
        None, "rho", None, TOTAL, 2, True,
    ),
    "verify_hajlasz u": (
        lambda om, f: verify_hajlasz(G, f, TOTAL, 1.0), None, "u", None, TOTAL, 2, False,
    ),
    "verify_hajlasz g": (
        lambda om, f: verify_hajlasz(G, TOTAL, f, 1.0), None, "g", None, TOTAL, 2, True,
    ),
}

#: The sites whose vertex set is the keys of their field: a mapping's
#: keys cannot repeat and none lacks a value, so they have no duplicate
#: or missing case.
KEY_SITES = {
    "lipschitz_constant": (lambda om, f: lipschitz_constant(G, f), "u"),
    "vector_lipschitz_constant": (
        lambda om, f: vector_lipschitz_constant(G, _vf(f)), "vector field",
    ),
}

SPOILERS = {
    "NaN": math.nan, "+inf": math.inf, "-inf": -math.inf, "non-number": "abc",
    "numeric string": "12", "bytes": b"3", "bool": True, "numpy bool": np.True_,
}

#: Ids that are not ints, though ``int`` would read them as one.
NON_INT_IDS = {"float id": 2.5, "integral float id": 3.0, "bool id": True}


def _cases():
    for name, (call, set_name, field_name, om, f, at, allow_inf) in SITES.items():
        if set_name is not None:
            yield name, "empty", call, [], f, f"{set_name} must be nonempty"
            yield name, "unknown id", call, om + [99], f, "unknown vertex id 99"
            for case, vid in NON_INT_IDS.items():
                yield name, case, call, om + [vid], f, f"unknown vertex id {vid}"
            twice = f"duplicate vertex {om[0]} in {set_name}"
            yield name, "duplicate", call, om + [om[0]], f, twice
        if field_name is None:
            continue
        missing = {v: x for v, x in f.items() if v != at}
        yield name, "missing", call, om, missing, f"{field_name} missing at vertex {at}"
        for spoil, value in SPOILERS.items():
            if allow_inf and spoil.endswith("inf"):
                continue
            yield name, spoil, call, om, {**f, at: value}, f"{field_name} not finite at vertex {at}"
    for name, (call, what) in KEY_SITES.items():
        f = {0: 0.0, 2: 1.0, 4: 0.5}
        yield name, "empty", call, None, {}, f"{what} must be nonempty"
        yield name, "unknown id", call, None, {**f, 99: 0.0}, "unknown vertex id 99"
        for case, vid in NON_INT_IDS.items():
            yield name, case, call, None, {**f, vid: 0.0}, f"unknown vertex id {vid}"
        for spoil, value in SPOILERS.items():
            yield name, spoil, call, None, {**f, 2: value}, f"{what} not finite at vertex 2"


CASES = list(_cases())


@pytest.mark.parametrize(
    "call, vertices, field, message",
    [case[2:] for case in CASES],
    ids=[f"{name}-{case}" for name, case, *_ in CASES],
)
def test_every_entry_point_rejects_bad_input_with_one_message(call, vertices, field, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call(vertices, field)


@pytest.mark.parametrize("name", [name for name, site in SITES.items() if site[6]])
def test_rho_and_g_may_be_infinite(name):
    call, _, _, om, f, at, _ = SITES[name]
    call(om, {**f, at: math.inf})


@pytest.mark.parametrize("name", [name for name, site in SITES.items() if site[2]])
def test_good_input_and_extra_ids_are_accepted(name):
    call, _, _, om, f, _, _ = SITES[name]
    call(om, f)
    call(om, {**f, 99: math.nan, -1: "abc"})  # ids the field is not read at


def test_the_first_failure_in_ascending_order_is_named():
    with pytest.raises(InputError, match="^boundary data missing at vertex 0$"):
        mcshane_extend(G, [4, 2, 0], {4: 1.0, 2: math.nan})
    with pytest.raises(InputError, match="^boundary data not finite at vertex 2$"):
        mcshane_extend(G, [4, 2, 0], {0: 1.0, 2: math.nan})
    with pytest.raises(InputError, match="^duplicate vertex 1 in Omega$"):
        mcshane_extend(G, [99, 1, 1], {1: 0.0})
    with pytest.raises(InputError, match="^unknown vertex id -5$"):
        mcshane_extend(G, [1, 1, -5], {1: 0.0})


def test_set_errors_come_before_value_errors():
    with pytest.raises(InputError, match="^duplicate vertex 4 in boundary$"):
        AMLEProblem(G, (4, 4, 0), {0: math.nan})
    with pytest.raises(InputError, match="^unknown vertex id 7$"):
        lipschitz_constant(G, {0: math.nan, 7: 1.0})


def test_an_init_field_with_no_active_vertex_is_empty():
    problem = AMLEProblem(G, tuple(range(5)), {v: float(v) for v in range(5)})
    sol = solve_amle(problem, init={})
    assert (sol.residual, sol.iterations, sol.converged) == (0.0, 0, True)
    assert sol.u == problem.g


def test_vector_fields_are_read_row_by_row():
    vf = VectorField({0: (0.0, 1.0), 4: (1.0, math.inf)})
    with pytest.raises(InputError, match="^boundary data not finite at vertex 4$"):
        whitney_extend(G, [0, 4], vf, COVER)
    F = whitney_extend(G, [0, 4], VectorField({0: (0.0, 1.0), 4: (1.0, np.float64(2.0))}), COVER)
    assert F.values[4] == (1.0, 2.0)


def test_single_ids_must_be_ints():
    """``index_of`` and ``has_vertex`` read a float or a bool as an unknown
    id, as vertex sets and graph records do; numpy ints are ids."""
    for vid in (2.9, 2.0, True, False, np.float64(1.0), np.True_, "1", None):
        with pytest.raises(InputError, match=f"^unknown vertex id {vid}$"):
            G.index_of(vid)
        assert not G.has_vertex(vid)
    assert G.index_of(np.int64(2)) == 2 and G.has_vertex(np.uint8(4))


def test_a_float_id_in_omega_is_not_truncated():
    with pytest.raises(InputError, match="^unknown vertex id 1.7$"):
        mcshane_extend(G, [1.7], {1: 5.0})
    assert mcshane_extend(G, [np.int64(1)], {1: 5.0}) == {v: 5.0 for v in range(5)}


def test_plain_mapping_vector_data_is_read_per_vertex():
    """A string is one non-number, not a row of one-character coordinates."""
    assert as_vector_field({0: "12", 4: 1.5}).values == {0: ("12",), 4: (1.5,)}
    assert as_vector_field({2: [1, 2], 3: np.zeros(2)}).values == {2: (1, 2), 3: (0.0, 0.0)}
    for value in ("abc", "12"):
        with pytest.raises(InputError, match="^boundary data not finite at vertex 0$"):
            whitney_extend(G, [0, 4], {0: value, 4: 1.0}, COVER)
    F = whitney_extend(G, [0, 4], {0: 0, 4: np.float32(1.0)}, COVER)
    assert (F.values[0], F.values[4]) == ((0.0,), (1.0,))


@pytest.mark.parametrize(
    "name", [name for name, site in SITES.items() if site[2] and name != "whitney_extend"]
)
def test_scalar_fields_refuse_vector_values(name):
    """A vector is not a number: the first vertex read with one is named,
    whether it is the only vector or every value is one."""
    call, _, field_name, om, f, at, _ = SITES[name]
    with pytest.raises(InputError, match=f"^{field_name} not a number at vertex {at}$"):
        call(om, {**f, at: (0.5, 0.5)})
    with pytest.raises(InputError, match=f"^{field_name} not a number at vertex {min(f)}$"):
        call(om, {v: (x, x) for v, x in f.items()})


def test_a_scalar_field_keyed_by_its_vertices_refuses_vector_values():
    with pytest.raises(InputError, match="^u not a number at vertex 0$"):
        lipschitz_constant(G, {0: (0.1, 0.2), 2: (0.3, 0.4)})


def test_vector_field_norms_read_entries_as_numbers():
    """``sup_norm`` and ``norm_of`` refuse what ``whitney_extend`` refuses."""
    for value in ("12", b"3", True, np.True_):
        for vf in (VectorField({0: (value,)}), VectorField({0: (value, 2)}),
                   as_vector_field({0: value})):
            with pytest.raises(InputError, match="^boundary data not finite at vertex 0$"):
                whitney_extend(G, [0, 4], VectorField({**vf.values, 4: vf.values[0]}), COVER)
            with pytest.raises(InputError, match="^vector field not finite at vertex 0$"):
                vf.sup_norm()
        with pytest.raises(
            InputError, match="^vector entries must be numbers, not strings or booleans$"
        ):
            VectorField({0: (1.0,)}).norm_of((value, 2))
    with pytest.raises(InputError, match="^vector field not finite at vertex 3$"):
        VectorField({1: (1.0, 0.0), 3: (math.nan, 0.0)}).sup_norm()
    assert VectorField({1: (1.0, -math.inf)}).sup_norm() == math.inf
    assert VectorField({1: (3.0, -4.0)}, "euclidean").sup_norm() == 5.0
    assert VectorField({}).sup_norm() == 0.0


@pytest.mark.parametrize("value", ["1", (1.0, 2.0), math.nan, True, b"3"])
def test_local_to_global_gradient_reads_its_values_as_numbers(value):
    with pytest.raises(InputError, match="^g not (finite|a number) at vertex 0$"):
        local_to_global_gradient({0: value, 1: 2.0}, u_norm=1.0, R=1.0)


@pytest.mark.parametrize("vid", [1.7, 1.0, True])
def test_local_to_global_gradient_keys_are_int_ids(vid):
    with pytest.raises(InputError, match=f"^unknown vertex id {vid}$"):
        local_to_global_gradient({vid: 2.0}, u_norm=1.0, R=1.0)


def test_local_to_global_gradient_keeps_infinities_and_int_keys():
    out = local_to_global_gradient({np.int64(3): math.inf, 1: 0.5}, u_norm=2.0, R=2.0)
    assert out == {1: 1.0, 3: math.inf}
    assert [type(k) for k in out] == [int, int]


@pytest.mark.parametrize("call, message", [
    (lambda: poincare_constant(G, TOTAL, TOTAL, 1.0, 1.0, radii=[]),
     "explicit radii must be nonempty"),
    (lambda: quasiconvexity_constant(G, max_pairs=1.5), "max_pairs must be a positive integer"),
    (lambda: quasiconvexity_constant(G, max_pairs=True), "max_pairs must be a positive integer"),
    (lambda: doubling_ratios(G, [0], ["0.1"]), "scales must be numbers, not strings or booleans"),
    (lambda: doubling_ratios(G, [0], [True]), "scales must be numbers, not strings or booleans"),
    (lambda: doubling_ratios(G, [0], [[0.1]]), r"scales must be positive and finite, got \[0.1\]"),
])
def test_scalar_parameters_refuse_what_they_cannot_read(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()
