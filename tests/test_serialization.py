"""Tests for the state-set file format and certificate serialization."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlops import (
    ProductState,
    StateSet,
    certify_nonlocal,
    dumps_certificate,
    dumps_state_set,
    loads_state_set,
    theorem1_set,
    theorem2_set,
    theorem4_set,
)
from nlops import serialize, tensor_core
from nlops.serialize import _load_json, _load_written, certificate_to_dict

from sweeps import sweep_sets


def test_roundtrip_is_byte_identical():
    original = dumps_state_set(theorem4_set((2, 3, 4)))
    reloaded = loads_state_set(original)
    assert dumps_state_set(reloaded) == original


def test_roundtrip_preserves_amplitudes_exactly():
    state_set = theorem2_set(3, 3)
    reloaded = loads_state_set(dumps_state_set(state_set))
    assert reloaded.dims == state_set.dims
    assert reloaded.label == state_set.label
    for a, b in zip(state_set.states, reloaded.states):
        for va, vb in zip(a.factors, b.factors):
            assert np.array_equal(va, vb)


def test_roundtrip_preserves_verdict():
    state_set = theorem4_set((2, 2, 3))
    reloaded = loads_state_set(dumps_state_set(state_set))
    a = certify_nonlocal(state_set)
    b = certify_nonlocal(reloaded)
    assert a.verdict == b.verdict == "CERTIFIED_NONLOCAL"
    for ra, rb in zip(a.parties, b.parties):
        assert (ra.active_pairs, ra.solution_dim, ra.trivial) == (
            rb.active_pairs, rb.solution_dim, rb.trivial)


def test_normalized_export_has_unit_locals_and_same_verdict():
    state_set = theorem2_set(3, 2)
    reloaded = loads_state_set(dumps_state_set(state_set, normalize=True))
    for state in reloaded:
        for vec in state.factors:
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert certify_nonlocal(reloaded).verdict == "CERTIFIED_NONLOCAL"


@pytest.mark.parametrize(
    "text",
    [
        # invalid JSON
        "not json at all {",
        # wrong format version
        '{"format_version": "other", "dims": [2, 2], "label": "", "states": []}',
        # single party
        '{"format_version": "nlops-1", "dims": [2], "label": "", "states": []}',
        # state with wrong party count
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1, 0], [0, 0]]]]}',
        # local vector with wrong length
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1, 0]], [[1, 0], [0, 0]]]]}',
        # non-numeric amplitude
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1, 0], ["x", 0]], [[1, 0], [0, 0]]]]}',
        # boolean amplitude
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1, 0], [true, 0]], [[1, 0], [0, 0]]]]}',
        # non-finite amplitude
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1, 0], [Infinity, 0]], [[1, 0], [0, 0]]]]}',
        # all-zero local vector
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]]}',
        # one-element pair
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1], [0, 0]], [[1, 0], [0, 0]]]]}',
        # three-element pair
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1, 0, 0], [0, 0]], [[1, 0], [0, 0]]]]}',
        # null amplitude
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1, 0], null], [[1, 0], [0, 0]]]]}',
        # nested-list amplitude
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1, 0], [[0], 0]], [[1, 0], [0, 0]]]]}',
        # string in the imaginary slot
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1, "0"], [0, 0]], [[1, 0], [0, 0]]]]}',
        # NaN amplitude
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1, 0], [NaN, 0]], [[1, 0], [0, 0]]]]}',
        pytest.param(
            '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1' + '0' * 400 + ', 0], [0, 0]], [[1, 0], [0, 0]]]]}',
            id="integer-too-large-for-a-float"),
        pytest.param(
            '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1' + '0' * 5000 + ', 0], [0, 0]], [[1, 0], [0, 0]]]]}',
            id="integer-past-the-digit-limit"),
        pytest.param("[" * 100000 + "]" * 100000, id="nesting-past-the-recursion-limit"),
        # boolean dimension
        '{"format_version": "nlops-1", "dims": [true, 2], "label": "", "states": []}',
        # a dimension too large for numpy, in a compact file and in the writer's layout
        '{"format_version": "nlops-1", "dims": [2, 100000000000000000000000], "label": "", "states": []}',
        '{\n  "format_version": "nlops-1",\n  "dims": [2, 100000000000000000000000],\n'
        '  "label": "",\n  "states": [\n  ]\n}\n',
        # a later state repeats a valid vector, spelled with a boolean or a string
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1, 0], [0, 0]], [[1, 0], [0, 0]]], [[[true, 0], [0, 0]], [[0, 0], [1, 0]]]]}',
        '{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": [[[[1, 0], [0, 0]], [[1, 0], [0, 0]]], [[[1, 0], [0, 0]], [[0, 0], ["1", 0]]]]}',
    ],
)
def test_malformed_inputs_rejected(text):
    with pytest.raises(ValueError, match="malformed-file"):
        loads_state_set(text)


def test_certificate_dict_schema():
    cert = certify_nonlocal(theorem2_set(3, 2))
    doc = certificate_to_dict(cert)
    assert doc["format_version"] == "nlops-1"
    assert doc["dims"] == [2, 2, 2]
    assert doc["verdict"] == "CERTIFIED_NONLOCAL"
    assert set(doc["tolerances"]) == {"tol_rank", "tol_active", "tol_orth"}
    assert set(doc["orthogonality"]) == {"pass", "max_residual"}
    for entry in doc["parties"]:
        assert {"party", "active_pairs", "solution_dim", "trivial"} <= set(entry)
        assert "witness" not in entry
    json.loads(dumps_certificate(cert))  # serializes cleanly


def test_certificate_dict_includes_witness_when_not_trivial():
    from nlops import product_basis

    cert = certify_nonlocal(product_basis((2, 2)))
    doc = certificate_to_dict(cert)
    assert doc["verdict"] == "NOT_CERTIFIED"
    for entry in doc["parties"]:
        assert entry["witness"]["dim"] == 2
        assert len(entry["witness"]["coords"]) == 4


def _reference_dump(state_set, normalize):
    """Independent writer: formats every amplitude of every state, no memo."""
    def num(x):
        return format(float(x), ".17g")

    lines = []
    for state in state_set.states:
        vecs = []
        for vec in state.factors:
            if normalize:
                vec = vec / np.linalg.norm(vec)
            vecs.append("[" + ", ".join(f"[{num(z.real)}, {num(z.imag)}]" for z in vec) + "]")
        lines.append("    [" + ", ".join(vecs) + "]")
    return (
        "{\n"
        '  "format_version": "nlops-1",\n'
        f'  "dims": {json.dumps(list(state_set.dims))},\n'
        f'  "label": {json.dumps(state_set.label)},\n'
        '  "states": [\n' + ",\n".join(lines) + "\n  ]\n}\n"
    )


def _signed_zero_set():
    # The same vectors up to the sign of a zero amplitude: a dump memo keyed
    # on values, not bytes, would merge them.
    a = ProductState((np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    b = ProductState((np.array([1.0, -0.0]), np.array([-0.0, 1.0])))
    c = ProductState((np.array([complex(1, -0.0), 0.0]), np.array([0.0, 1.0])))
    return StateSet((2, 2), (a, b, c, a), label="signed zeros")


@pytest.mark.parametrize("normalize", [False, True])
def test_dump_matches_per_amplitude_reference(normalize):
    for state_set in (*sweep_sets(), _signed_zero_set()):
        text = dumps_state_set(state_set, normalize=normalize)
        assert text == _reference_dump(state_set, normalize), state_set.label
        assert dumps_state_set(loads_state_set(text)) == text, state_set.label


@pytest.mark.parametrize("amplitude", ["[-0, 0]", "[0, -0]", "[-0 , 0]", "[0, -0\n]"])
def test_load_keeps_the_sign_of_a_bare_negative_zero(amplitude):
    text = ('{"format_version": "nlops-1", "dims": [2, 2], "label": "", '
            f'"states": [[[[1, 0], {amplitude}], [[1, 0], [0, 0]]]]}}')
    z = loads_state_set(text).states[0].factors[0][1]
    assert z == 0 and np.signbit(z.real) != np.signbit(z.imag)


def test_dump_keeps_both_spellings_of_zero():
    lines = dumps_state_set(_signed_zero_set()).splitlines()[5:9]
    assert lines == [
        "    [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],",
        "    [[[1, 0], [-0, 0]], [[-0, 0], [1, 0]]],",
        "    [[[1, -0], [0, 0]], [[0, 0], [1, 0]]],",
        "    [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]",
    ]


_NORM_RANGE = ("a local vector's squared norm must be a finite float "
               "of at least 2.2250738585072014e-308")


def _state_line(vectors):
    return "[" + ", ".join(vectors) + "]"


@pytest.mark.parametrize("bad, error", [
    ("[[0, 0], [0, 0]]", "state 3: bad-local: a local vector needs at least one nonzero amplitude"),
    ("[[1, 0], [Infinity, 0]]", "state 3: bad-local: amplitudes must be finite"),
    ("[[1e200, 0], [0, 0]]", f"state 3: bad-local: {_NORM_RANGE}"),
    ("[[1e-200, 0], [0, 0]]", f"state 3: bad-local: {_NORM_RANGE}"),
    ('[[1, 0], ["x", 0]]', "state 3 party 1: amplitudes must be [re, im] numbers"),
    ("[[1, 0]]", "state 3 party 1 must have 2 amplitudes"),
])
def test_load_names_the_first_state_holding_a_bad_vector(bad, error):
    good = ["[[1, 0], [0, 0]]", "[[0, 0], [1, 0]]"]
    lines = [_state_line([good[i % 2], good[(i // 2) % 2]]) for i in range(8)]
    lines[3] = _state_line([good[0], bad])  # party 1 of state 3 ...
    lines[7] = _state_line([bad, good[0]])  # ... and party 0 of state 7
    text = ('{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": ['
            + ", ".join(lines) + "]}")
    with pytest.raises(ValueError) as info:
        loads_state_set(text)
    assert str(info.value) == f"malformed-file: {error}"


def test_load_checks_each_new_vector_of_a_state():
    # State 1 brings two vectors no earlier state held; the zero one comes first.
    lines = [_state_line(["[[1, 0], [0, 0]]", "[[1, 0], [0, 0]]"]),
             _state_line(["[[0, 0], [0, 0]]", "[[0, 0], [1, 0]]"])]
    text = ('{"format_version": "nlops-1", "dims": [2, 2], "label": "", "states": ['
            + ", ".join(lines) + "]}")
    with pytest.raises(ValueError) as info:
        loads_state_set(text)
    assert str(info.value) == ("malformed-file: state 1: bad-local: "
                               "a local vector needs at least one nonzero amplitude")


def _file(lines, layout, dims="[2, 2]"):
    """A file holding the given state lines, in the writer's layout or compactly."""
    if layout == "written":
        return (f'{{\n  "format_version": "nlops-1",\n  "dims": {dims},\n  "label": "",\n'
                '  "states": [\n' + ",\n".join("    " + line for line in lines) + "\n  ]\n}\n")
    return (f'{{"format_version": "nlops-1", "dims": {dims}, "label": "", "states": ['
            + ", ".join(lines) + "]}")


@pytest.mark.parametrize("bad, error", [
    # a structural error in a later state is reported only after the earlier ones are checked
    ([(2, 0, "[[0, 0], [0, 0]]"), (5, 1, "[[1, 0]]")],
     "state 2: bad-local: a local vector needs at least one nonzero amplitude"),
    ([(4, 1, "[[1e200, 0], [0, 0]]"), (6, 0, '[[1, 0], ["x", 0]]')],
     f"state 4: bad-local: {_NORM_RANGE}"),
    # two bad vectors in one state get the message one ProductState of them gets
    ([(2, 0, "[[0, 0], [0, 0]]"), (2, 1, "[[NaN, 0], [0, 0]]")],
     "state 2: bad-local: amplitudes must be finite"),
])
@pytest.mark.parametrize("layout", ["written", "compact"])
def test_load_reports_the_first_error_of_a_file_with_several(bad, error, layout):
    good = ["[[1, 0], [0, 0]]", "[[0, 0], [1, 0]]"]
    states = [[good[i % 2], good[(i // 2) % 2]] for i in range(8)]
    for s_idx, p_idx, vec in bad:
        states[s_idx][p_idx] = vec
    with pytest.raises(ValueError) as info:
        loads_state_set(_file([_state_line(vectors) for vectors in states], layout))
    assert str(info.value) == f"malformed-file: {error}"


@pytest.mark.parametrize("line, error", [
    ('  "label": 5,', "label must be a string"),
    ('  "label": null,', "label must be a string"),
    ('  "label": ["x"],', "label must be a string"),
    ('  "dims": [2.0, 2, 2],', "dims must be positive integers"),
    ('  "dims": [true, 2, 2],', "dims must be positive integers"),
    ('  "dims": [0, 2, 2],', "dims must be positive integers"),
    ('  "dims": [2],', "dims must list >= 2 parties"),
])
def test_written_layout_checks_dims_and_label_as_the_json_path_does(line, error):
    lines = dumps_state_set(theorem2_set(3, 2)).split("\n")
    lines[2 if "dims" in line else 3] = line
    text = "\n".join(lines)
    for load in (loads_state_set, _load_json):
        with pytest.raises(ValueError) as info:
            load(text)
        assert str(info.value) == f"malformed-file: {error}"


@pytest.mark.parametrize("compact", [False, True], ids=["written", "compact"])
def test_load_checks_each_party_table_once(monkeypatch, compact):
    text = dumps_state_set(theorem1_set(40, 4))
    if compact:
        text = json.dumps(json.loads(text))
    calls = []
    check = tensor_core._check_local_vectors

    def counted(*args):
        calls.append(args)
        return check(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nlops" and hasattr(module, "_check_local_vectors"):
            monkeypatch.setattr(module, "_check_local_vectors", counted)
    loads_state_set(text)
    # The table check, once per distinct table: parties 0, 1 and 2..39 list
    # their vectors in different first-seen orders.  No check per state.
    assert len(calls) == 3


@pytest.mark.parametrize("compact", [False, True], ids=["written", "compact"])
def test_load_converts_each_distinct_local_vector_once(monkeypatch, compact):
    # The 40 parties of theorem1_set(40, 4) hold 8 distinct local vectors between them.
    text = dumps_state_set(theorem1_set(40, 4))
    if compact:
        text = json.dumps(json.loads(text))
    calls = []
    convert = serialize._converted
    monkeypatch.setattr(serialize, "_converted",
                        lambda *args: calls.append(args) or convert(*args))
    loads_state_set(text)
    assert len(calls) == 8


@pytest.mark.parametrize("layout", ["written", "compact"])
def test_a_vector_held_at_two_local_dimensions_is_checked_at_each(layout):
    # State 1 holds [[0, 0], [1, 0]] at party 0, where d = 2, and at party 1, where d = 3.
    state_0 = "[[[1, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]]]"
    good = _file([state_0, "[[[0, 0], [1, 0]], [[0, 0], [1, 0], [0, 0]]]"], layout, "[2, 3]")
    assert (_load_written(good) is None) == (layout == "compact")
    bad = _file([state_0, "[[[0, 0], [1, 0]], [[0, 0], [1, 0]]]"], layout, "[2, 3]")
    with pytest.raises(ValueError) as info:
        loads_state_set(bad)
    assert str(info.value) == "malformed-file: state 1 party 1 must have 3 amplitudes"


def _shared_vector_sets():
    dup = theorem2_set(3, 2)
    return _signed_zero_set(), StateSet(dup.dims, dup.states + dup.states[:1], label="dup")


def _assert_table_gives_back(state_set, states):
    """The set's table is read-only, byte-distinct and fully used, and its
    states have factors byte-equal to the given ones."""
    assert state_set.index.shape == (len(states), state_set.n_parties)
    assert not state_set.index.flags.writeable
    for j, table in enumerate(state_set.vectors):
        assert not table.flags.writeable
        assert len({row.tobytes() for row in table}) == len(table)
        assert sorted(set(state_set.index[:, j].tolist())) == list(range(len(table)))
    assert len(state_set) == len(state_set.states) == len(states)
    for got, want in zip(state_set, states):
        assert not any(f.flags.writeable for f in got.factors)
        assert [f.tobytes() for f in got.factors] == [f.tobytes() for f in want.factors]


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_table_and_file_give_back_the_states(data):
    base = data.draw(st.sampled_from(_shared_vector_sets()) | st.sampled_from(sweep_sets()))
    picks = data.draw(st.lists(st.integers(0, len(base) - 1), max_size=2 * len(base)))
    states = tuple(base.states[i] for i in picks)
    built = StateSet(base.dims, states)
    _assert_table_gives_back(built, states)
    _assert_table_gives_back(loads_state_set(dumps_state_set(built)), states)


def _table(state_set):
    """Everything a set is made of: dims, label, index and table rows, as bytes."""
    return (state_set.dims, state_set.label, state_set.index.shape, state_set.index.tobytes(),
            tuple((v.shape, v.tobytes()) for v in state_set.vectors))


def _awkward_label_set():
    base = theorem2_set(3, 2)
    return StateSet(base.dims, base.states,
                    label='a "quote", a \\ backslash,\na newline and été ✓')


@pytest.mark.parametrize("normalize", [False, True])
def test_written_layout_path_builds_the_json_path_table(normalize):
    empty = StateSet((2, 3), ())
    for state_set in (*sweep_sets(), _signed_zero_set(), empty, _awkward_label_set()):
        text = dumps_state_set(state_set, normalize=normalize)
        fast = _load_written(text)
        assert fast is not None, state_set.label
        assert _table(fast) == _table(_load_json(text)), state_set.label


def _outcome(load, text):
    try:
        return _table(load(text))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("state_set", [_signed_zero_set(), _awkward_label_set()],
                         ids=["signed-zeros", "awkward-label"])
def test_every_one_byte_change_loads_as_the_json_path_loads_it(state_set):
    text = dumps_state_set(state_set)
    mutants = [text[:i] + text[i + 1:] for i in range(len(text))]
    mutants += [text[:i] + " " + text[i:] for i in range(len(text) + 1)]
    mutants += [text[:i] + "x" + text[i + 1:] for i in range(len(text))]
    # ... and every state line with one more local vector at its end
    mutants += [text[:i] + "]], [[1, 0], [0, 0" + text[i:]
                for i in range(len(text)) if text.startswith("]]]", i)]
    accepted = 0
    for mutant in mutants:
        want = _outcome(_load_json, mutant)
        assert _outcome(loads_state_set, mutant) == want, repr(mutant)
        accepted += not isinstance(want, str)
    # Both outcomes occur: some changes keep a valid file, most break it.
    assert 0 < accepted < len(mutants)
