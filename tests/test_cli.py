"""Command-line interface: payloads, exit codes, round trips."""

import io
import json

import pytest

from nicolai.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv)
    return code, json.loads(out)


def test_enumerate_ground_configs(capsys):
    code, doc = _run_json(capsys, "enumerate", "ground-configs", "--n", "2")
    assert code == 0 and doc["status"] == "ok"
    payload = doc["payload"]
    assert payload["count"] == 6
    assert "00011" in payload["items"]


def test_enumerate_ground_configs_n1(capsys):
    code, doc = _run_json(capsys, "enumerate", "ground-configs", "--n", "1")
    assert code == 0
    assert doc["payload"]["items"] == ["000", "111"]


def test_enumerate_charges(capsys):
    code, doc = _run_json(capsys, "enumerate", "charges", "--n", "1")
    assert code == 0
    assert doc["payload"]["count"] == 2
    assert doc["payload"]["items"][0] == {"k": 0, "l": 1, "values": "---"}


def test_enumerate_csv(capsys):
    code, out = _run(capsys, "--format", "csv", "enumerate", "ground-configs", "--n", "1")
    assert code == 0
    assert out.splitlines() == ["config", "000", "111"]


def test_count_both_methods(capsys):
    code, doc = _run_json(capsys, "count", "--n", "3")
    assert code == 0
    assert doc["payload"]["count"] == 18
    assert doc["payload"]["methods"] == {"transfer": 18, "enumerate": 18}
    code, doc = _run_json(capsys, "count", "--n", "3", "--method", "transfer")
    assert doc["payload"]["count"] == 18
    code, doc = _run_json(capsys, "count", "--n", "1", "--method", "enumerate")
    assert doc["payload"]["count"] == 2


def test_count_large_n_transfer_only(capsys):
    code, doc = _run_json(capsys, "count", "--n", "20", "--method", "transfer")
    assert code == 0
    assert doc["payload"]["count"] == 2 * 3 ** 19
    code, _ = _run_json(capsys, "count", "--n", "20", "--method", "enumerate")
    assert code == 3


def test_verify_suites_pass(capsys):
    code, doc = _run_json(capsys, "verify", "fixtures")
    assert code == 0 and doc["payload"]["passed"]
    code, doc = _run_json(capsys, "verify", "algebra", "--n", "2")
    assert code == 0 and doc["payload"]["passed"]
    names = [c["name"] for c in doc["payload"]["checks"]]
    assert any("Q^2" in name for name in names)
    code, doc = _run_json(capsys, "verify", "charges", "--n", "2")
    assert code == 0 and doc["payload"]["passed"]
    code, doc = _run_json(capsys, "verify", "classification", "--n", "2")
    assert code == 0 and doc["payload"]["passed"]


def test_verify_usage_errors(capsys):
    code, doc = _run_json(capsys, "verify", "algebra", "--n", "9")
    assert code == 2 and doc["status"] == "failure"
    code, doc = _run_json(capsys, "verify", "algebra")
    assert code == 2


def test_spectrum(capsys):
    code, doc = _run_json(capsys, "spectrum", "--n", "1", "--edge", "open")
    assert code == 0
    payload = doc["payload"]
    assert payload["kernel_dimension"] >= 2
    assert min(payload["eigenvalues"]) >= -1e-9
    assert payload["interval"] == [0, 1]


def test_spectrum_sector_and_csv(capsys):
    code, doc = _run_json(capsys, "spectrum", "--n", "2", "--edge", "closed", "--sector", "3")
    assert code == 0
    assert doc["payload"]["sector"] == 3
    assert len(doc["payload"]["eigenvalues"]) == 10  # C(5,3)
    code, out = _run(capsys, "--format", "csv", "spectrum", "--n", "1", "--edge", "open")
    lines = out.splitlines()
    assert lines[0] == "index,eigenvalue" and len(lines) == 33


def test_spectrum_resource_guard(capsys):
    code, doc = _run_json(capsys, "--max-dim", "8", "spectrum", "--n", "2", "--edge", "open")
    assert code == 3
    assert "max-dim" in doc["payload"]["reason"]


def test_generate_and_replay_round_trip(capsys, tmp_path):
    code, doc = _run_json(capsys, "generate", "--n", "2", "--target", "00011")
    assert code == 0
    payload = doc["payload"]
    assert payload["replay_verified"] is True
    assert len(payload["steps"]) == 2
    word_file = tmp_path / "word.json"
    word_file.write_text(json.dumps(payload))
    code, doc = _run_json(capsys, "replay", "--word", str(word_file))
    assert code == 0
    assert doc["payload"]["consistent"] is True


def test_generate_trivial_and_occupied(capsys):
    code, doc = _run_json(capsys, "generate", "--n", "2", "--target", "00000")
    assert code == 0 and doc["payload"]["steps"] == []
    code, doc = _run_json(
        capsys, "generate", "--n", "3", "--target", "0001000", "--start", "occupied"
    )
    assert code == 0 and len(doc["payload"]["steps"]) == 2


def test_generate_usage_errors(capsys):
    code, doc = _run_json(capsys, "generate", "--n", "2", "--target", "01010")
    assert code == 2
    code, doc = _run_json(capsys, "generate", "--n", "2", "--target", "0001x")
    assert code == 2


def test_replay_detects_tampering(capsys, tmp_path):
    code, doc = _run_json(capsys, "generate", "--n", "2", "--target", "11100")
    payload = doc["payload"]
    payload["predicted_sign"] = -payload["predicted_sign"]
    word_file = tmp_path / "tampered.json"
    word_file.write_text(json.dumps(payload))
    code, doc = _run_json(capsys, "replay", "--word", str(word_file))
    assert code == 1 and doc["status"] == "failure"


@pytest.mark.parametrize("text", [
    '{"start":"fock","k":0,"l":1,"target":"000","predicted_sign":1}',  # no steps
    "[1,2]",
    '"payload"',
    '{"start":"fock","k":0,"l":1,"target":"000","predicted_sign":1,"steps":[7]}',
    '{"start":"fock","k":0,"l":1,"target":"000","predicted_sign":1,'
    '"steps":[{"k":0,"l":1,"values":"x++","adjoint":false}]}',
])
def test_replay_malformed_word_is_usage_error(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, doc = _run_json(capsys, "replay", "--word", "-")
    assert code == 2 and doc["status"] == "failure"
    assert doc["payload"]["code"] == "usage-error"


def test_payload_determinism(capsys):
    _, first = _run(capsys, "enumerate", "charges", "--n", "2")
    _, second = _run(capsys, "enumerate", "charges", "--n", "2")
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_output_file(capsys, tmp_path):
    out_file = tmp_path / "res.json"
    code, out = _run(capsys, "--output", str(out_file), "count", "--n", "2")
    assert code == 0 and out == ""
    assert json.loads(out_file.read_text())["payload"]["count"] == 6


def test_output_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NICOLAI_OUTPUT_DIR", str(tmp_path))
    code, out = _run(capsys, "count", "--n", "2")
    assert code == 0 and out == ""
    doc = json.loads((tmp_path / "count.json").read_text())
    assert doc["payload"]["count"] == 6
