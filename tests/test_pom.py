"""Measurement container validation and JSON serialization."""

import warnings

import numpy as np
import pytest

from qttf import (
    NotInformationallyCompleteError,
    Pom,
    PomSchemaError,
    PomValidationError,
    load_pom,
    measurement_matrices,
    build_basis,
    mub_povm,
    pom_from_dict,
    pom_to_dict,
    qubit_sic,
    random_pom,
    save_pom,
    sic_povm,
)


def test_pom_exposes_metadata():
    pom = qubit_sic()
    assert pom.dim == 2
    assert pom.n_outcomes == 4
    np.testing.assert_allclose(pom.traces, 0.5, atol=1e-12)
    assert isinstance(pom.label, str) and pom.label


def test_pom_outcomes_are_a_read_only_copy():
    # the checks made when the Pom is built hold for its life: no caller can
    # write into its outcomes, and the caller's own array stays theirs
    given = qubit_sic().outcomes.copy()
    pom = Pom(given)
    with pytest.raises(ValueError, match="read-only"):
        pom.outcomes[0, 0, 0] = 1.0
    assert not np.shares_memory(pom.outcomes, given)
    given[0, 0, 0] = 1.0  # still writable
    assert pom.outcomes[0, 0, 0] != 1.0


def test_pom_is_usable_as_a_value():
    # equality and hashing go by identity: comparing two Poms neither raises
    # nor compares their outcome arrays, and a Pom can key a dict
    first, second = qubit_sic(), qubit_sic()
    assert first == first and first != second
    assert isinstance(hash(first), int)
    assert {first: "a", second: "b"}[first] == "a"


def test_pom_keeps_the_eigenvalues_it_checked():
    pom = random_pom(3, 7, 2, rng=5)
    np.testing.assert_array_equal(pom._eigenvalues, np.linalg.eigvalsh(pom.outcomes))
    with pytest.raises(ValueError, match="read-only"):
        pom._eigenvalues[0, 0] = 1.0


def test_pom_rejects_negative_outcome():
    good = qubit_sic().outcomes.copy()
    good[0] = np.array([[0.6, 0.0], [0.0, -0.1]])
    good[1] = np.eye(2) - good[0] - good[2] - good[3]
    with pytest.raises(PomValidationError, match=r"outcome \d+ is not positive semidefinite"):
        Pom(good)


def test_pom_rejects_wrong_resolution():
    bad = qubit_sic().outcomes * 1.01
    with pytest.raises(PomValidationError):
        Pom(bad)


def test_pom_rejects_nonhermitian_outcome():
    bad = qubit_sic().outcomes.astype(complex).copy()
    bad[2, 0, 1] += 0.05
    with pytest.raises(PomValidationError):
        Pom(bad)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_pom_rejects_non_finite_outcome(entry):
    bad = qubit_sic().outcomes.copy()
    bad[2, 0, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # rejected before any arithmetic on it
        with pytest.raises(PomValidationError, match=r"outcome 2 has a non-finite entry"):
            Pom(bad)


def test_pom_rejects_bad_shapes():
    with pytest.raises(PomValidationError):
        Pom(np.zeros((0, 2, 2)))
    with pytest.raises(PomValidationError):
        Pom(np.eye(2))


def test_single_outcome_identity_is_valid_but_not_complete():
    # a valid Pom, but C is one zero row: Pbar^{-1/2} C has a single singular
    # value, 0, so no model of it exists
    pom = Pom(np.eye(2)[None], label="trivial")
    assert pom.n_outcomes == 1
    with pytest.raises(
        NotInformationallyCompleteError,
        match=r"s_min 0\.000e\+00 is not above 1e-06 times s_max 0\.000e\+00",
    ):
        measurement_matrices(pom, build_basis(2))


@pytest.mark.parametrize(
    "pom",
    [qubit_sic(), sic_povm(3), mub_povm(2), random_pom(3, 11, 2, rng=5)],
    ids=["sic2", "sic3", "mub2", "random"],
)
def test_json_round_trip_preserves_measurement(pom, tmp_path):
    path = tmp_path / "pom.json"
    save_pom(pom, path)
    loaded = load_pom(path)
    assert loaded.dim == pom.dim
    assert loaded.label == pom.label
    np.testing.assert_allclose(loaded.outcomes, pom.outcomes, atol=1e-16)


def test_json_round_trip_is_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    pom = random_pom(2, 6, 1, rng=9)
    save_pom(pom, first)
    save_pom(load_pom(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_dict_round_trip():
    pom = mub_povm(3)
    again = pom_from_dict(pom_to_dict(pom))
    np.testing.assert_allclose(again.outcomes, pom.outcomes, atol=1e-16)
    assert again.label == pom.label


def test_schema_missing_keys():
    with pytest.raises(PomSchemaError, match="missing required keys"):
        pom_from_dict({"dim": 2})
    with pytest.raises(PomSchemaError, match="expected a JSON object"):
        pom_from_dict([1, 2, 3])


def test_schema_bad_fields():
    base = pom_to_dict(qubit_sic())
    with pytest.raises(PomSchemaError, match="'dim'"):
        pom_from_dict({**base, "dim": "two"})
    with pytest.raises(PomSchemaError, match="'label'"):
        pom_from_dict({**base, "label": 7})
    with pytest.raises(PomSchemaError, match="outcome 0"):
        pom_from_dict({**base, "outcomes": [[[0.5, 0.0]]]})


_SIC_ENTRY = pom_to_dict(qubit_sic())["outcomes"][2][1][0]


@pytest.mark.parametrize(
    "entry",
    [
        "x", 0.0, [0.0, "x"], [0.0], [0.0, 0.0, 0.0], None,
        # numpy reads both as numbers: the string as the entry's exact value
        pytest.param([repr(_SIC_ENTRY[0]), _SIC_ENTRY[1]], id="string"),
        pytest.param([_SIC_ENTRY[0], False], id="boolean"),
    ],
)
def test_schema_names_a_malformed_entry(entry):
    # a non-numeric or ragged [re, im] entry of outcome 2 is a schema error
    # naming that outcome, not a bare numpy error or a failed physics check
    data = pom_to_dict(qubit_sic())
    data["outcomes"][2][1][0] = entry
    with pytest.raises(PomSchemaError, match="outcome 2:"):
        pom_from_dict(data)


def test_schema_propagates_physics_violations():
    base = pom_to_dict(qubit_sic())
    base["outcomes"] = base["outcomes"][:3]  # no longer sums to identity
    with pytest.raises(PomSchemaError):
        pom_from_dict(base)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(PomSchemaError, match="not valid JSON"):
        load_pom(path)
