"""Each output check accepts a right answer and rejects a wrong one.

Run with ``python3 -m pytest clibench``.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from checks import (
    CheckFailure,
    check_count,
    check_replay,
    check_sequences,
    check_spectrum,
    check_verify,
    check_word,
    ground_configs,
    ground_count,
    reference_spectrum,
    sequence_violation,
    union_sequence_count,
)
from layers import PER_LAYER

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(scope="module")
def open2():
    return reference_spectrum(2, "open")


def spectrum_payload(ref, n=2, edge="open"):
    return {
        "interval": [0, n],
        "edge_mode": edge,
        "sector": "all",
        "eigenvalues": ref.eigenvalues.tolist(),
        "kernel_dimension": ref.kernel_dimension,
    }


def test_reference_spectrum_closed_forms():
    # open n=5: 6 terms on 13 sites; closed n=6: 5 terms on 13 sites
    assert reference_spectrum(5, "open").trace == 12288
    assert reference_spectrum(6, "closed").trace == 10240
    assert reference_spectrum(2, "open").kernel_dimension == 64
    assert reference_spectrum(3, "closed").kernel_dimension == 80


def test_spectrum_check_accepts_reference(open2):
    check_spectrum(spectrum_payload(open2), 2, "open", open2)


def test_spectrum_check_rejects_perturbed_eigenvalue(open2):
    payload = spectrum_payload(open2)
    payload["eigenvalues"][-1] += 1e-7
    with pytest.raises(CheckFailure, match="eigenvalue off"):
        check_spectrum(payload, 2, "open", open2)


def test_spectrum_check_rejects_wrong_kernel_dimension(open2):
    payload = spectrum_payload(open2)
    payload["kernel_dimension"] += 1
    with pytest.raises(CheckFailure, match="kernel dimension"):
        check_spectrum(payload, 2, "open", open2)


def test_spectrum_check_rejects_wrong_trace(open2):
    ref = dataclasses.replace(open2, trace=open2.trace + 1)
    with pytest.raises(CheckFailure, match="trace"):
        check_spectrum(spectrum_payload(open2), 2, "open", ref)


def test_count_check():
    check_count({"n": 4, "count": 54, "methods": {"transfer": 54, "enumerate": 54}}, 4)
    with pytest.raises(CheckFailure):
        check_count({"n": 4, "count": 53, "methods": {"transfer": 53}}, 4)
    with pytest.raises(CheckFailure):
        check_count({"n": 4, "count": 54, "methods": {"transfer": 54, "enumerate": 53}}, 4)


def sequences_payload(n):
    values = ["".join("-" if b == "0" else "+" for b in g) for g in ground_configs(n)]
    return {"count": len(values), "items": [{"k": 0, "l": n, "values": v} for v in values]}


def test_sequence_check_accepts_the_ground_set_under_sign_map():
    check_sequences(sequences_payload(3), 3)


def test_sequence_check_rejects_alternating_triplet():
    assert sequence_violation("---+-++").startswith("alternating triplet")
    payload = sequences_payload(3)
    payload["items"][0]["values"] = "---+-++"
    with pytest.raises(CheckFailure, match="alternating triplet"):
        check_sequences(payload, 3)


def test_sequence_check_rejects_duplicate_and_edge_violation():
    payload = sequences_payload(3)
    payload["items"][1] = dict(payload["items"][0])
    with pytest.raises(CheckFailure, match="duplicate"):
        check_sequences(payload, 3)
    payload = sequences_payload(3)
    payload["items"][0]["values"] = "-+--+++"
    with pytest.raises(CheckFailure, match="edge pair"):
        check_sequences(payload, 3)


def word(start, values, adjoint, target, sign):
    return {
        "start": start,
        "k": 0,
        "l": 1,
        "target": target,
        "steps": [{"k": 0, "l": 1, "values": values, "adjoint": adjoint}],
        "predicted_sign": sign,
        "replay_verified": True,
    }


def test_word_check_signs():
    # c*_0 c*_1 c*_2 |000> = +|111>;  c_0 c_1 c_2 |111> = -|000>
    check_word(word("fock", "+++", False, "111", 1), 1, "fock", "111")
    check_word(word("occupied", "---", False, "000", -1), 1, "occupied", "000")
    # the adjoint of c_0 c_1 c_2 is c*_2 c*_1 c*_0: c*_0 acts first, c*_1 sees one fermion
    check_word(word("fock", "---", True, "111", -1), 1, "fock", "111")


def test_word_check_rejects_flipped_sign():
    with pytest.raises(CheckFailure, match="reaches"):
        check_word(word("occupied", "---", False, "000", 1), 1, "occupied", "000")


def test_word_check_rejects_wrong_target_and_annihilation():
    with pytest.raises(CheckFailure, match="wrong request"):
        check_word(word("fock", "+++", False, "111", 1), 1, "fock", "000")
    with pytest.raises(CheckFailure, match="annihilates"):
        check_word(word("fock", "---", False, "000", 1), 1, "fock", "000")


def test_replay_check():
    w = word("fock", "+++", False, "111", 1)
    good = {"target": "111", "predicted_sign": 1, "steps": 1, "consistent": True}
    check_replay(good, w)
    with pytest.raises(CheckFailure):
        check_replay(dict(good, predicted_sign=-1), w)


def verify_payload(suite, names):
    return {"suite": suite, "n": 4, "passed": True,
            "checks": [{"name": name, "passed": True} for name in names]}


def test_verify_check_charges():
    assert union_sequence_count(4) == 116
    names = ["... for all 116 sequences [n=4]", "... for all sequences and centers [n=4]"]
    check_verify(verify_payload("charges", names), "charges", 4)
    with pytest.raises(CheckFailure, match="115"):
        check_verify(verify_payload("charges", [names[0].replace("116", "115"), names[1]]),
                     "charges", 4)
    failing = verify_payload("charges", names)
    failing["checks"][1]["passed"] = False
    with pytest.raises(CheckFailure, match="failed"):
        check_verify(failing, "charges", 4)


def test_verify_check_algebra_count():
    check_verify(verify_payload("algebra", ["x"] * 16), "algebra", 4)
    with pytest.raises(CheckFailure, match="15 checks"):
        check_verify(verify_payload("algebra", ["x"] * 15), "algebra", 4)


def test_ground_configs_count():
    assert [len(ground_configs(n)) for n in (1, 2, 3, 4)] == [ground_count(n) for n in (1, 2, 3, 4)]


def test_reference_agrees_with_the_program():
    nicolai_model = pytest.importorskip("nicolai.model")
    for n, edge in ((2, "open"), (3, "closed")):
        report = nicolai_model.spectrum(nicolai_model.build_supercharge((0, n), edge))
        ref = reference_spectrum(n, edge)
        assert np.max(np.abs(np.array(report.eigenvalues) - ref.eigenvalues)) < 1e-9
        assert report.kernel_dimension == ref.kernel_dimension


def test_per_layer_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
