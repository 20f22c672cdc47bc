"""Command-line interface: payloads, exit codes, round trips."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nicolai
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


def test_enumerate_size_guard(capsys):
    code, doc = _run_json(capsys, "enumerate", "charges", "--n", "13")
    assert code == 3 and doc["status"] == "failure"
    assert doc["payload"] == {"code": "resource-limit", "reason": "enumeration capped at n <= 12"}


# sha256 of whole documents with "elapsed_ms" removed (CSV carries none),
# computed on the word enumerator these commands used before the bulk one.
COUNT_DIGESTS = {
    1: "1d24836f832d3092f831c240744df031c953d126368b3cfe06476df8433b3612",
    2: "e3b438660d407f82e0237b2da0080c81437fa2cb422a4d9a4b3c999184fc4450",
    3: "64db48e50aa7e2dc76bca48c4c84aa6ddc6e4dc0ae7040d37c9d16394a723aaa",
    4: "6502103fd985b2b7f0fc4e2527c2b398e6f07f340a41a18628bbb5e1a64aca50",
    5: "cbc07652bf45fdaf7e2247824a7c9c276d587b2347d0919daa61df3c65416d46",
    6: "ac2f8ae41526a4bd3e86ca7b58efd4af06cb0e63b061d3a43ab9cd212f2c415c",
    7: "c56654a8d38ca67009722aa1ea669e9e2269e1ee87507b52cd8207aa04949779",
    8: "280e590a14d83ed85bcfa7277367b20e1b89c6b029b43a4c64cc1d330c77ed01",
    9: "b3a3ec9fabf5558ffb3bcc834b1faf0c820dff44858c959d08e534ad9a9d1db4",
    10: "a3604de90caf32c624076d6cd493104b03c867e44bbe3fec9abe9da881e493a7",
    11: "17be287ebce37f060ffe3711d9502c90cb0f38d038df2e7b3b131785f56af92b",
    12: "a8cf2ed273b940fe017651a8fd206e601f26738de18a28eb69d2207d73312580",
}
ENUMERATE_DIGESTS = {
    ("charges", "json", 1): "55e2995a5412ddb42607df1d2544ad7b0d333a309d18c66e1d03f26ee095abe5",
    ("charges", "json", 2): "f3ac2fab97c462c04f6e16b319ed201dd94f27859f26cb3b751f1346c8149dd9",
    ("charges", "json", 3): "548514a904c741bdf153357d123ec10ec67770259514e14d68a8cd2875353dae",
    ("charges", "json", 4): "55473e9cf53aba25676a85ed87d4b21efa65c939ed8cd1d3e9bf9dbb44aa0702",
    ("charges", "json", 5): "c5bdeeb7e4ee16870971d98bbb0e569cb5f9c36bfdb17f719707bfc08e24d7e7",
    ("charges", "json", 6): "2d6cfe76fdf8207ed06014903afa6eab1688a7c2f73f9aca3cb481432ab697b8",
    ("charges", "json", 7): "54738b54dad4f06e3741a420592fa812ffc0d5f0c4d760811101b3935c9d3221",
    ("charges", "json", 8): "da5b90828cc3f81c85923f92e13ca20698cc4850813642d81cc7fb9de3d84e56",
    ("charges", "json", 9): "af918a48788eeafdae985b02d63d9ccdc57a474a47d2f082e0651867a02326ed",
    ("charges", "json", 10): "332c4c6204649773d3b1224b1595fd9dd6feaff322909779f00cde4f4363d514",
    ("charges", "csv", 1): "db12dcc39cabbcba550024ae1552836a94ce8d58ac6b8e933bcef240d5e671c8",
    ("charges", "csv", 2): "e2d0f10efb4ffdb1ee10d1214fe1cd044c14cffdcd171effa50744b88748a4b5",
    ("charges", "csv", 3): "eb434a80d1616c013f4ae07fffc962ab556c95eb72368b73835f8089d2aaba11",
    ("charges", "csv", 4): "c90861dd5ea7d6fa42d2b3acd94bdc6f22b607d6809d346981c1a7edccb39b14",
    ("charges", "csv", 5): "6a31cb9a2f6228a7182da8a9e83a2d841f0370e2c65a20b15d1c6ef15befdcea",
    ("charges", "csv", 6): "7e38a5876b9f3d292a70f1b577c785a8bc14fe3fb8b96a6f9465b0e0a640face",
    ("charges", "csv", 7): "ef56ae12de824303ed544da319d9a3b2c457d0d3fe1830976f20b448a37f156e",
    ("charges", "csv", 8): "99b6f0b71e3bb1ed746847821a7ee1e68d786acf5f7e16314be23c3d24fb3673",
    ("charges", "csv", 9): "ad71737ec5f45f7269e893d63e2a0146843a0d78633342fe717ebf399d0da637",
    ("charges", "csv", 10): "3fbd08d85935d2e26f25b468944468036ce737ea809b9fbffdc93b7d96348fad",
    ("ground-configs", "json", 1): "2341890e6fa78c508f9baf99de488f1123410348f65730400f7b7113592b8ba5",
    ("ground-configs", "json", 2): "17d2aed046ba1764b6e7f006071b1269e35a98dfbef6c0deae3fabe9d2b79b40",
    ("ground-configs", "json", 3): "545f83d5a6cbe4d5d399499730e5608be32ed69b5c4e6c56f6fcf186d25459bd",
    ("ground-configs", "json", 4): "32f8e6a92962e754db8ad977a63c3cbac3e01ec215c3662a838f222a19ea724e",
    ("ground-configs", "json", 5): "e0f3809683fba4c50cbf8e9fe8e3164c05207da3a250cbe512e53173b963abd3",
    ("ground-configs", "json", 6): "bd579112065cc466a8e6a86b101e96e90ce0dc7a5be0c5eb37d3317be372fe9f",
    ("ground-configs", "json", 7): "eabc6d9b8e496d7d5c79ff877e0ce4ff333db81a0a6614184c58a1d9ac62918d",
    ("ground-configs", "json", 8): "4f6724a3d7f0f12f0daca0659feea29eafcd65018da6d2584c6937b04a434640",
    ("ground-configs", "json", 9): "750e62ba43601d71cb2ad8a995072e6ec248783e46dd8b8f7d06ee3257006239",
    ("ground-configs", "json", 10): "9340e4657cd79b0093ac31eea0af2ce659366ee9f8f43909909d6960a1131e2c",
    ("ground-configs", "csv", 1): "76ba1e2c38a805ff8da0f1f829115b4efcf768ba07380b5dad7a308c011f5284",
    ("ground-configs", "csv", 2): "7e87387664864bf9e1c791ad2e6b80339010e368c738e0387255703e2e61979e",
    ("ground-configs", "csv", 3): "b06e78c542ebbfa363ac74cc6e1a830004f9a424c468488499d65d3dc2fe2c58",
    ("ground-configs", "csv", 4): "8fe07bf38b7300660dc009d11ad73312b99ced82053bd4b5d5cb54338c2dcf08",
    ("ground-configs", "csv", 5): "33c0be6145d19b99bbf6226827563b19f3efdf7dad4a173e099157d495f17220",
    ("ground-configs", "csv", 6): "359d05643b576ec857e518308f1b297f1225f4de92e8352051b2025144eefd49",
    ("ground-configs", "csv", 7): "b7fa5cd5a3be228d934472069b7024c9d239aaed7bd9a229366963cbcf56f86f",
    ("ground-configs", "csv", 8): "79347d652c1d3fdbb47a87e51c30e35efb356aa212e7c1629a8d11f341d9ce7c",
    ("ground-configs", "csv", 9): "a9ebea8a6270391d80e9c56007d05411779472743a473eabe01c026f428a0e3c",
    ("ground-configs", "csv", 10): "21f2ebe0fac2834b0e7c13da36626d1cdce7f7a6d5987534ccb95c7ee8afda29",
}


def _document_digest(capsys, *argv):
    code, out = _run(capsys, *argv)
    assert code == 0
    return hashlib.sha256(re.sub(r'"elapsed_ms":[^,}]+,', "", out).encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(COUNT_DIGESTS))
def test_count_documents_pinned(capsys, n):
    assert _document_digest(capsys, "count", "--n", str(n)) == COUNT_DIGESTS[n]


@pytest.mark.parametrize("kind, fmt, n", sorted(ENUMERATE_DIGESTS))
def test_enumerate_documents_pinned(capsys, kind, fmt, n):
    digest = _document_digest(capsys, "--format", fmt, "enumerate", kind, "--n", str(n))
    assert digest == ENUMERATE_DIGESTS[kind, fmt, n]


@pytest.mark.parametrize("argv", [
    ("enumerate", "charges", "--n", "0"),
    ("enumerate", "ground-configs", "--n", "-1"),
    ("count", "--n", "0", "--method", "enumerate"),
])
def test_empty_interval_is_usage_error(capsys, argv):
    code, doc = _run_json(capsys, *argv)
    assert code == 2 and doc["status"] == "failure"
    assert doc["payload"] == {"code": "usage-error", "reason": "k < l required"}


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


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_one_wrong_charge_fails_the_charges_suite(capsys, monkeypatch, where):
    # a corrupted sequence anywhere in the batch must fail both checks, so a
    # block boundary that is off by one cannot hide it
    from nicolai import verify
    from nicolai.charges import ConservationSequence, enumerate_union

    corrupted = ConservationSequence.from_string(0, 2, "+----", check=False)

    def with_corrupted(p, q):
        union = enumerate_union(p, q)
        at = {"first": 0, "middle": len(union) // 2, "last": len(union)}[where]
        return union[:at] + [corrupted] + union[at:]

    monkeypatch.setattr(verify, "enumerate_union", with_corrupted)
    checks = verify.charges_suite(4)
    assert len(checks) == 2 and not any(c.passed for c in checks)
    code, doc = _run_json(capsys, "verify", "charges", "--n", "4")
    assert code == 1 and doc["status"] == "failure"
    assert doc["payload"]["code"] == "verification-failure"


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


def test_spectrum_default_max_dim_admits_n6(capsys):
    # dimension 2**15, rejected by the earlier default of 2**14
    code, doc = _run_json(capsys, "spectrum", "--n", "6", "--edge", "open")
    assert code == 0
    assert doc["payload"]["kernel_dimension"] == 7040
    assert len(doc["payload"]["eigenvalues"]) == 1 << 15


def test_spectrum_payload_independent_of_blas_threads():
    src = str(Path(nicolai.__file__).resolve().parents[1])
    payloads = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "nicolai.cli", "spectrum", "--n", "5", "--edge", "open"],
            env=env, capture_output=True, text=True, check=True,
        )
        payloads.append(json.dumps(json.loads(proc.stdout)["payload"]).encode())
    assert payloads[0] == payloads[1]


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


def test_generate_and_replay_build_no_matrix(capsys, monkeypatch, tmp_path):
    # words are replayed on their one vector: no window-wide matrix is built
    # or applied, and the documents are those of the matrix replay
    def refuse(*args, **kwargs):
        raise AssertionError("a window-wide matrix was built or applied")

    for module in [m for name, m in sys.modules.items() if name.startswith("nicolai")]:
        if hasattr(module, "build_matrix"):
            monkeypatch.setattr(module, "build_matrix", refuse)
    monkeypatch.setattr(nicolai.fock.IntegerSparseOperator, "apply", refuse)
    code, doc = _run_json(capsys, "generate", "--n", "8", "--target", "00011100001100011")
    assert code == 0
    del doc["elapsed_ms"]
    assert doc == {
        "command": "generate",
        "params": {
            "command": "generate", "n": 8, "seed": 0, "start": "fock",
            "target": "00011100001100011",
        },
        "payload": {
            "k": 0, "l": 8, "predicted_sign": 1, "replay_verified": True, "start": "fock",
            "steps": [
                {"adjoint": True, "k": 3, "l": 4, "values": "---"},
                {"adjoint": True, "k": 0, "l": 4, "values": "------+++"},
                {"adjoint": False, "k": 0, "l": 1, "values": "---"},
                {"adjoint": True, "k": 6, "l": 7, "values": "---"},
                {"adjoint": True, "k": 5, "l": 8, "values": "--+++--"},
            ],
            "target": "00011100001100011",
        },
        "status": "ok",
    }
    word_file = tmp_path / "word.json"
    word_file.write_text(json.dumps(doc))
    code, doc = _run_json(capsys, "replay", "--word", str(word_file))
    assert code == 0
    del doc["elapsed_ms"]
    assert doc == {
        "command": "replay",
        "params": {"command": "replay", "seed": 0, "word": str(word_file)},
        "payload": {
            "consistent": True, "predicted_sign": 1, "steps": 5,
            "target": "00011100001100011",
        },
        "status": "ok",
    }


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


def test_generate_and_replay_size_guard(capsys, tmp_path):
    code, doc = _run_json(capsys, "--max-dim", "16", "generate", "--n", "2", "--target", "00011")
    assert code == 3 and doc["payload"]["code"] == "resource-limit"
    assert "max-dim 16" in doc["payload"]["reason"]
    code, doc = _run_json(capsys, "generate", "--n", "2", "--target", "00011")
    word_file = tmp_path / "word.json"
    word_file.write_text(json.dumps(doc["payload"]))
    code, doc = _run_json(capsys, "--max-dim", "16", "replay", "--word", str(word_file))
    assert code == 3 and doc["payload"]["code"] == "resource-limit"
    # a 29-site word is refused under the default --max-dim before any replay
    wide = {"start": "fock", "k": 0, "l": 14, "target": "0" * 29, "predicted_sign": 1, "steps": []}
    word_file.write_text(json.dumps(wide))
    code, doc = _run_json(capsys, "replay", "--word", str(word_file))
    assert code == 3 and doc["payload"]["code"] == "resource-limit"

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


def test_overflow_is_resource_limit(capsys, monkeypatch):
    def overflowing(*args, **kwargs):
        raise OverflowError("operator sum exceeds the certified int64 range")

    monkeypatch.setattr("nicolai.cli.run_suite", overflowing)
    code, out = _run(capsys, "verify", "charges", "--n", "1")
    doc = json.loads(out)
    assert code == 3 and doc["status"] == "failure"
    assert doc["payload"] == {
        "code": "resource-limit",
        "reason": "operator sum exceeds the certified int64 range",
    }
    assert "Traceback" not in capsys.readouterr().err


def test_commands_import_no_scipy():
    src = str(Path(nicolai.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, sys\n"
        "from nicolai.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['spectrum', '--n', '3', '--edge', 'open']) == 0\n"
        "    assert main(['verify', 'charges', '--n', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


# -- bad command lines and fuzzed inputs --------------------------------------


@pytest.mark.parametrize("argv", [
    ("generate", "--n", "1", "--target", "000", "--start", "nope"),
    ("generate", "--n", "abc", "--target", "000"),
    ("frobnicate",),
    (),
])
def test_bad_command_line_is_usage_error_document(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 2 and doc["status"] == "failure"
    assert doc["payload"]["code"] == "usage-error"
    assert doc["params"] == {"argv": list(argv)}
    assert captured.err == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: nicolai")


def _run_quietly(argv, stdin_text=""):
    """Run ``main`` in process; return its exit code and stdout."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _one_document(code, out):
    assert code in (0, 1, 2, 3)
    lines = out.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["status"] == ("ok" if code == 0 else "failure")
    return doc


_targets = st.one_of(
    st.text("01", max_size=13),
    st.text(max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(-2, 5), _targets, st.sampled_from(["fock", "occupied"]))
def test_fuzzed_generate_ends_in_one_document(n, target, start):
    code, out = _run_quietly(["generate", "--n", str(n), "--target", target, "--start", start])
    doc = _one_document(code, out)
    if code == 0:
        assert doc["payload"]["target"] == target


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.text("+-01x", max_size=7),
    st.lists(st.integers(0, 1), max_size=3),
)
_steps = st.fixed_dictionaries(
    {},
    optional={
        "k": st.one_of(st.integers(-2, 5), _scalars),
        "l": st.one_of(st.integers(-1, 6), _scalars),
        "values": st.one_of(st.text("+-", min_size=3, max_size=11), _scalars),
        "adjoint": _scalars,
    },
)
_words = st.fixed_dictionaries(
    {},
    optional={
        "start": st.one_of(st.sampled_from(["fock", "occupied"]), _scalars),
        "k": st.one_of(st.just(0), _scalars),
        "l": st.one_of(st.integers(1, 4), _scalars),
        "target": st.one_of(st.text("01", min_size=3, max_size=9), _scalars),
        "predicted_sign": st.one_of(st.sampled_from([1, -1]), _scalars),
        "steps": st.one_of(st.lists(st.one_of(_steps, _scalars), max_size=3), _scalars),
    },
)


@settings(max_examples=80, deadline=None)
@given(st.one_of(_words, _scalars))
def test_fuzzed_replay_ends_in_one_document(word):
    _one_document(*_run_quietly(["replay", "--word", "-"], json.dumps(word)))
