import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxcal.errors import InvalidArgumentError
from fluxcal.models import (
    LONG_LEVEL_BAND,
    MAX_SHORT_TERMS,
    CombinedResponse,
    ExpTerm,
    LongTimeModel,
    ShortTimeModel,
    eval_long,
    eval_short,
    eval_step_response,
    model_from_dict,
    model_to_dict,
    step_response_grid,
)
from fluxcal.serialize import dumps_json, format_float, load_json, write_json


def test_exp_term_validation():
    ExpTerm(amplitude=-0.02, tau_ns=17.0)
    with pytest.raises(InvalidArgumentError):
        ExpTerm(amplitude=1.0, tau_ns=17.0)
    with pytest.raises(InvalidArgumentError):
        ExpTerm(amplitude=-0.02, tau_ns=0.0)
    with pytest.raises(InvalidArgumentError):
        ExpTerm(amplitude=math.nan, tau_ns=1.0)


def test_short_time_model_orders_terms():
    model = ShortTimeModel.from_arrays([-0.01, -0.02], [100.0, 10.0])
    assert model.taus_ns.tolist() == [10.0, 100.0]
    assert model.amplitudes.tolist() == [-0.02, -0.01]


def test_short_time_model_term_count_limits():
    with pytest.raises(InvalidArgumentError):
        ShortTimeModel(terms=())
    with pytest.raises(InvalidArgumentError):
        ShortTimeModel.from_arrays([-0.01] * 7, np.geomspace(1, 1000, 7))


def test_short_time_model_rejects_equal_taus():
    with pytest.raises(InvalidArgumentError):
        ShortTimeModel.from_arrays([-0.01, -0.02], [10.0, 10.0])


def test_eval_short_single_term_analytic():
    model = ShortTimeModel.from_arrays([-0.04], [25.0])
    t = np.array([0.0, 25.0, 50.0])
    expected = -0.04 * np.exp(-t / 25.0)
    np.testing.assert_allclose(eval_short(model, t), expected, rtol=1e-15)


def test_eval_short_at_zero_is_amplitude_sum():
    model = ShortTimeModel.from_arrays([-0.024, -0.011, -0.006], [17.61, 132.07, 1305.15])
    assert eval_short(model, 0.0) == pytest.approx(-0.041, abs=1e-15)


@settings(deadline=None, max_examples=50)
@given(
    terms=st.lists(
        st.tuples(st.floats(-0.5, 0.5), st.floats(0.1, 1e5)),
        min_size=1,
        max_size=MAX_SHORT_TERMS,
        unique_by=lambda term: term[1],
    ),
    n=st.integers(0, 20000),
    dt_ns=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
)
def test_eval_short_is_the_sum_of_its_terms_to_the_bit(terms, n, dt_ns):
    # eval_short runs each term's operations through one scratch array: the
    # bits are those of adding amplitude * exp(-t / tau) term by term.
    model = ShortTimeModel.from_arrays(*zip(*terms))
    t = np.arange(n) * dt_ns
    expected = np.zeros_like(t)
    for term in model.terms:
        expected += term.amplitude * np.exp(-t / term.tau_ns)
    assert eval_short(model, t).tobytes() == expected.tobytes()


def test_long_time_model_level_band():
    LongTimeModel(settled=1.0127, initial=0.9935, tau_us=18.684)
    with pytest.raises(InvalidArgumentError):
        LongTimeModel(settled=1.6, initial=0.99, tau_us=10.0)
    with pytest.raises(InvalidArgumentError):
        LongTimeModel(settled=1.0, initial=0.99, tau_us=0.0)


def test_eval_long_limits():
    model = LongTimeModel(settled=1.0127, initial=0.9935, tau_us=18.684)
    assert eval_long(model, 0.0) == pytest.approx(0.9935, abs=1e-15)
    assert eval_long(model, 1e5) == pytest.approx(1.0127, abs=1e-12)


def test_combined_step_response_is_sum_of_parts():
    short = ShortTimeModel.from_arrays([-0.019, -0.021], [47.83, 528.10])
    long_part = LongTimeModel(settled=1.0127, initial=0.9935, tau_us=18.684)
    resp = CombinedResponse(short=short, long=long_part, v_step=0.3)
    t = np.geomspace(1.0, 40000.0, 50)
    expected = eval_long(long_part, t / 1000.0) + eval_short(short, t)
    np.testing.assert_allclose(eval_step_response(resp, t), expected, rtol=1e-15)


def test_missing_long_part_defaults_to_unity():
    short = ShortTimeModel.from_arrays([-0.019], [47.83])
    resp = CombinedResponse(short=short, long=None, v_step=1.0)
    t = np.array([0.0, 100.0])
    np.testing.assert_allclose(
        eval_step_response(resp, t), 1.0 + eval_short(short, t), rtol=1e-15
    )
    assert resp.settled_level == 1.0


def test_ideal_channel_step_response_is_one():
    resp = CombinedResponse(short=None, long=None, v_step=0.5)
    t = np.linspace(0, 100, 11)
    np.testing.assert_array_equal(eval_step_response(resp, t), np.ones(11))


def test_step_response_grid_matches_pointwise_eval():
    resp = CombinedResponse(
        short=ShortTimeModel.from_arrays([-0.02], [40.0]),
        long=None,
        v_step=1.0,
    )
    wf = step_response_grid(resp, duration_ns=100.0, dt_ns=0.5)
    np.testing.assert_allclose(
        wf.samples, eval_step_response(resp, wf.times_ns), rtol=1e-15
    )


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
level = st.floats(*LONG_LEVEL_BAND, exclude_min=True, exclude_max=True)


@st.composite
def combined_responses(draw):
    """Any model the checks accept: 0-6 short terms of amplitude in (-1, 1)
    (-0.0 drawn on its own too) and distinct time constants, an optional long part with both levels in
    the plausibility band, and a finite nonzero v_step."""
    taus = sorted(draw(st.lists(positive, max_size=MAX_SHORT_TERMS, unique=True)))
    amplitude = st.just(-0.0) | st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
    terms = tuple(ExpTerm(draw(amplitude), tau) for tau in taus)
    long_part = draw(st.none() | st.builds(LongTimeModel, level, level, positive))
    v_step = draw(st.floats(allow_nan=False, allow_infinity=False).filter(bool))
    return CombinedResponse(ShortTimeModel(terms) if terms else None, long_part, v_step)


@settings(deadline=None)
@given(combined_responses())
def test_model_dict_roundtrip_preserves_values(resp):
    # model_from_dict inverts model_to_dict, through the JSON file too;
    # write_json is deterministic, and a file read back is rewritten to the
    # same bytes (-0.0 included).
    assert model_from_dict(model_to_dict(resp)) == resp
    with tempfile.TemporaryDirectory() as tmp:
        first, second, third = (Path(tmp) / name for name in ("a.json", "b.json", "c.json"))
        write_json(first, model_to_dict(resp))
        write_json(second, model_to_dict(resp))
        assert first.read_bytes() == second.read_bytes()
        assert model_from_dict(load_json(first)) == resp
        write_json(third, model_to_dict(model_from_dict(load_json(first))))
        assert third.read_bytes() == first.read_bytes()


def test_model_from_dict_defaults():
    resp = model_from_dict({})
    assert resp.short is None and resp.long is None
    assert resp.v_step == 1.0


def test_model_json_file_roundtrip_is_byte_identical(tmp_path):
    resp = CombinedResponse(
        short=ShortTimeModel.from_arrays([-0.019, -0.021], [47.83, 528.10]),
        long=None,
        v_step=0.3,
    )
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_json(first, model_to_dict(resp))
    write_json(second, model_to_dict(model_from_dict(load_json(first))))
    assert first.read_bytes() == second.read_bytes()


def test_format_float_parses_back_exactly():
    rng = np.random.default_rng(31)
    values = np.concatenate(
        [rng.normal(size=200), 10.0 ** rng.uniform(-300, 300, 200) * rng.choice([-1, 1], 200)]
    )
    for x in values:
        assert float(format_float(float(x))) == float(x)


def test_format_float_rejects_non_finite():
    with pytest.raises(InvalidArgumentError):
        format_float(math.inf)
    with pytest.raises(InvalidArgumentError):
        format_float(math.nan)


def test_dumps_json_is_valid_json_with_full_precision():
    payload = {"a": 1 / 3, "b": [True, None, "text", 7], "c": {"d": 1e-300}}
    text = dumps_json(payload)
    back = json.loads(text)
    assert back["a"] == 1 / 3
    assert back["c"]["d"] == 1e-300
    assert back["b"] == [True, None, "text", 7]


@settings(max_examples=200)
@given(st.dictionaries(st.text(), st.text() | st.lists(st.text(), max_size=3), max_size=4))
def test_dumps_json_round_trips_any_text(payload):
    assert json.loads(dumps_json(payload)) == payload


@given(st.text(st.characters(min_codepoint=0x20, blacklist_categories=("Cs",))))
def test_dumps_json_text_without_control_characters_keeps_its_bytes(text):
    # With no character below U+0020, only quotes and backslashes are escaped.
    quoted = '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    assert dumps_json({"path": text}) == '{\n  "path": ' + quoted + "\n}\n"


def test_dumps_json_escapes_control_characters():
    assert dumps_json({"path": "a\tb\nc"}) == '{\n  "path": "a\\tb\\nc"\n}\n'


def test_model_from_dict_takes_fit_outputs_and_their_merge():
    short = {**model_to_dict(CombinedResponse(
        short=ShortTimeModel.from_arrays([-0.02], [40.0]), long=None, v_step=0.3)),
        "meta": {"regime": "short"}}
    long = {**model_to_dict(CombinedResponse(
        short=None, long=LongTimeModel(settled=1.01, initial=0.99, tau_us=9.0), v_step=0.3)),
        "meta": {"regime": "long"}}
    merged = model_from_dict({**short, **long})
    assert merged.short.taus_ns.tolist() == [40.0] and merged.long.tau_us == 9.0
    assert model_from_dict(short).long is None


@pytest.mark.parametrize("data, message", [
    ({"lnog": {"A": 1.0, "B": 1.0, "tau_us": 1.0}}, "model: unknown keys ['lnog']"),
    ({"short": [{"p": -0.02, "tau_ns": 40.0, "tau_us": 1.0}]}, "model.short[0]: unknown keys ['tau_us']"),
    ({"short": [[-0.02, 40.0]]}, "model.short[0]: expected an object, got [-0.02, 40.0]"),
    ({"long": {"A": 1.0, "B": 1.0, "tau": 1.0}}, "model.long: unknown keys ['tau']"),
    ({"long": {"A": 1.0, "B": None, "tau_us": 1.0}}, "model.long.B: expected a finite number, got None"),
    ({"v_step": "nan"}, "model.v_step: expected a finite number, got 'nan'"),
])
def test_model_from_dict_rejects_unknown_keys_and_non_numbers(data, message):
    with pytest.raises(ValueError) as info:
        model_from_dict(data)
    assert str(info.value) == message
    assert not isinstance(info.value, InvalidArgumentError)
