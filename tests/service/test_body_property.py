"""Every JSON body on the simulate and render routes ends typed.

A Hypothesis property over whole request bodies: each field is drawn
from its valid range or from values JSON can spell but the request
cannot hold (wrong types, out-of-range and non-finite numbers, unknown
fields, non-object documents).  Whatever the mix, the service answers
200 or a typed 4xx — never a 500 — and a refused body checks no
session out (``pool.acquired`` is unchanged).

Valid budgets and image sizes are kept small so that each accepted
body serves in milliseconds; valid deadlines are generous, so a 504 is
never the expected answer.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import SessionOptions
from repro.parallel.shmplane import leaked_segments
from repro.service import ServiceConfig, ServiceThread, simulate_path

SPEC = "cornell-box"

#: Values of the wrong JSON type for any numeric field.
NOT_A_NUMBER = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)

#: Floats JSON (as Python reads it) can carry, ``NaN`` and ``Infinity``
#: included.
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _int_field(valid: st.SearchStrategy, low: int, high: int):
    """(valid draw, refused draw) of an integer field valid in [low, high]."""
    return valid, st.one_of(
        st.integers(max_value=low - 1),
        st.integers(min_value=high + 1, max_value=10**30),
        ANY_FLOAT,
        NOT_A_NUMBER,
    )


#: Refused draws of a positive finite number field.
REFUSED_NUMBER = st.one_of(NON_FINITE, st.floats(max_value=0.0), NOT_A_NUMBER)


def _point_field():
    """(valid draw, refused draw) of a camera point: three numbers."""
    return (
        st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        st.one_of(
            st.lists(ANY_FLOAT, min_size=0, max_size=4).filter(
                lambda v: len(v) != 3 or not all(map(math.isfinite, v))
            ),
            NOT_A_NUMBER,
        ),
    )


#: Field -> (valid draw, refused draw).
SIMULATE_FIELDS = {
    # A budget past MAX_PHOTONS (2**28) would repeat substreams, so it
    # is refused; big valid budgets cost only time and are not drawn.
    "photons": (
        st.integers(0, 300),
        st.one_of(
            st.integers(max_value=-1), st.integers(min_value=2**28 + 1),
            ANY_FLOAT, NOT_A_NUMBER,
        ),
    ),
    "seed": _int_field(st.integers(0, 2**48 - 1), 0, 2**48 - 1),
    "sigma": (st.floats(0.5, 6.0), REFUSED_NUMBER),
    "deadline": (st.floats(30.0, 120.0), REFUSED_NUMBER),
    "target_error": (st.floats(0.05, 50.0), REFUSED_NUMBER),
}

RENDER_FIELDS = {
    **SIMULATE_FIELDS,
    "eye": _point_field(),
    "look_at": _point_field(),
    "fov": (
        st.floats(10.0, 170.0),
        st.one_of(REFUSED_NUMBER, st.floats(min_value=180.0)),
    ),
    "width": _int_field(st.integers(1, 12), 1, 4096),
    "height": _int_field(st.integers(1, 12), 1, 4096),
}


def _bodies(fields: dict) -> st.SearchStrategy:
    """Valid bodies, valid bodies with one refused field, free mixtures
    (unknown fields included), and documents that are not objects."""
    valid = st.fixed_dictionaries(
        {}, optional={name: ok for name, (ok, _) in fields.items()}
    )
    one_refused = st.tuples(valid, st.sampled_from(sorted(fields))).flatmap(
        lambda drawn: fields[drawn[1]][1].map(
            lambda bad: {**drawn[0], drawn[1]: bad}
        )
    )
    mixed = st.fixed_dictionaries({}, optional={
        **{name: st.one_of(ok, bad) for name, (ok, bad) in fields.items()},
        "unknown": st.integers(),
    })
    not_objects = st.one_of(
        st.lists(st.integers(), max_size=2), st.integers(), st.text(max_size=3)
    )
    return st.one_of(valid, one_refused, mixed, not_objects)


@pytest.fixture(scope="module")
def service():
    config = ServiceConfig(
        scenes=(SPEC,), port=0, options=SessionOptions(amortize=True)
    )
    with ServiceThread(config) as thread:
        # Admit the scene so its pool counters exist before the first draw.
        status, _, _ = thread.request(
            "POST", simulate_path(SPEC), {"photons": 10}
        )
        assert status == 200
        yield thread
    assert leaked_segments() == []


def _acquired(service) -> int:
    status, _, body = service.request("GET", "/stats")
    assert status == 200
    return json.loads(body)["scenes"][SPEC]["pool"]["acquired"]


def _check(service, path: str, body) -> None:
    before = _acquired(service)
    status, _, reply = service.request(
        "POST", path, json.dumps(body).encode("utf-8"), timeout=120
    )
    after = _acquired(service)
    if status == 200:
        assert after == before + 1
        return
    assert 400 <= status < 500, (status, body, reply[:300])
    assert json.loads(reply)["error"]["code"], reply
    assert after == before, (status, body)


@settings(max_examples=60, deadline=None)
@given(body=_bodies(SIMULATE_FIELDS))
def test_simulate_bodies_end_typed(service, body):
    _check(service, simulate_path(SPEC), body)


@settings(max_examples=60, deadline=None)
@given(body=_bodies(RENDER_FIELDS))
def test_render_bodies_end_typed(service, body):
    _check(service, f"/scenes/{SPEC}/render", body)
