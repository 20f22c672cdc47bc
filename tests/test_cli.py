"""Command-line interface: payloads, exit codes, round trips."""

import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import nicolai
from nicolai.charges import enumerate_sequences
from nicolai.cli import _JSONText, _document, main
from nicolai.ground import enumerate_upsilon_hat
from nicolai.model import SpectrumReport, build_supercharge, spectrum


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
    assert doc["payload"] == {
        "code": "resource-limit", "reason": "ground configurations: 2*3^12 > --max-dim 524288"
    }


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

# sha256 of the verify documents, as ENUMERATE_DIGESTS; each check's name and
# verdict fixes the document, so these hold on every machine.
VERIFY_DIGESTS = {
    ("algebra", "json", 1): "fee827791c69e0b0a0d4bc713a3ca736dad9c939d5fb26662136a63b045e860f",
    ("algebra", "json", 2): "84b244615bae579c82968e6d8017d5191aaf6fbbddd014be1601e13d14ad931e",
    ("algebra", "json", 3): "66279b69f7d085792f125fec940a471eb9f0f2d5681ffff362b4ec10ba201814",
    ("algebra", "json", 4): "07cad3e8d2627c09f2662f5a5a6500aace8559c6b582f7032d9c313a2525ec56",
    ("algebra", "json", 5): "f40a2529daad4f02e8358fe88555f845b7c5bd1fe010a9153e4ad0b85ad37fef",
    ("algebra", "json", 6): "981b65273430604a0d7786479860ed652f70982fa959534d1d25b548b461a8bf",
    ("algebra", "csv", 1): "57f8bd1bb00e4cb519e887d861a287dab46bad739503df82a55b06e3ad89be73",
    ("algebra", "csv", 2): "5fa0660b4d7655ed1b65553c3133b7eaa1116d8296ca2aa114dc82b6056cec7b",
    ("algebra", "csv", 3): "1fbb2c68871f8bc451c4199a02ee7c6eeb7582b6f7ded4c8a0352c7a04f58679",
    ("algebra", "csv", 4): "042bd09fb74c340343a8bfe7b46c849480bfcfada0e5d17bf55b83ce724a9b04",
    ("algebra", "csv", 5): "222ca508cf80a5bd1be9808e74d5bff52ebe387d8a7c655baa0e23aec89671ff",
    ("algebra", "csv", 6): "8c2db07097a4b7f8dff2b68eebf5318f350dc28c471da07a268b2fbfa32069f3",
    ("charges", "json", 1): "7cc5004afdfc10d3f1b23981a9c394333bbf104190a9134e06a498151baf449e",
    ("charges", "json", 2): "621a6f44d4ff700af08bf9dc80e6fc84a2e764ecb21f4deb5cd14b250ab56d2d",
    ("charges", "json", 3): "556e763a631c7665da7fb831fc49fc2cf117cbe87bdd218affd410c22c135fe2",
    ("charges", "json", 4): "86b170daa16546ab2b9432d625aa2567cbc136f83bfcc44baacafea8088a95e5",
    ("charges", "json", 5): "9597a9ff8c493937fad07268afca46945701346ef125cdf294d6de5277bbe6ef",
    ("charges", "json", 6): "f8195618a0b13360e385f12dfbee76b5507c3b52a66b1a81422f717bf9d46d8e",
    ("charges", "csv", 1): "8e92a1fc818fcbee92c40d5d4092277458834ebe6eb911b63b5132667ed1b33b",
    ("charges", "csv", 2): "f3c98368d2c2da47caf67b4d3be3418469f6daaa26f1e283c892bb50d7be173b",
    ("charges", "csv", 3): "bf8d54cf3be96247f59eba496b21480946649e40b32ebf7dab841d79cf7d56d1",
    ("charges", "csv", 4): "e15a7a60ebbda608d8a0dead761dcb1021ee175182da54f20de9ed9be3fe024f",
    ("charges", "csv", 5): "abee30565220a0441b95add696c8ce0f3cd17e7a79edd01341e805d95a2d5fc3",
    ("charges", "csv", 6): "e5e7edc3b3ac562347ab96c868728ad16d6c30b71599c3cab8a779d516a901dc",
    ("classification", "json", 1): "d2cb4f3c6674fb3739c362fe3f306cf58b811a0f837994079d69e6c904d26097",
    ("classification", "json", 2): "e565f38480dcc462de6a73ba9906df1692e68dce6eb8fb87758123344239ef01",
    ("classification", "json", 3): "20253a42d7265bc4fbe7ffb130cf363694f6d2f4e45c8f4cc2ffae6255a0a35f",
    ("classification", "json", 4): "759ec92e85f2b363e88c54b953c6e87d15c450b985ec9d5ac13a7681eaa13259",
    ("classification", "json", 5): "f9f541a2a2f78e94aaa44eee0c5a5228fb5955d3cfd010256a437c33ab2de005",
    ("classification", "json", 6): "5bef51bb40e335e86542841ea5e564a5caae0af67d65ebb3be9918b6ba718e4d",
    ("classification", "csv", 1): "b6d1caf3856d491e1abce27cf9313bbd1a7a75b11054ec4bcc42663232c738cc",
    ("classification", "csv", 2): "f4efa4144f1d0bb5f3675158e050c53cae73e79a45132e1982749b19c33d1dd5",
    ("classification", "csv", 3): "572fb61a20a9a2717d0f36cb098fee8278db46176988eb6545408c4abb9a86b7",
    ("classification", "csv", 4): "bc2774a99ec334ea2c4bdff3e6bba4269793a76e9934272d2c9496dae66544f6",
    ("classification", "csv", 5): "a4bc0e40e4d95d940e669164f2eeccf8cd1f798cef166aacf8502197fd34b9ff",
    ("classification", "csv", 6): "03c77acb480aeea46c58749b8b567985cff27b0c9340810494ce602943edc667",
    ("fixtures", "json", None): "924ebcbd8eb7afd53d497ed276e91343f161d20fefe0c304c4aa4d5ec581b609",
    ("fixtures", "csv", None): "37fc3e85d6dc16465da5d501f41389b8319c18c7fc488edd7e831e470997d927",
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


@pytest.mark.parametrize("suite, fmt, n", sorted(VERIFY_DIGESTS, key=str))
def test_verify_documents_pinned(capsys, suite, fmt, n):
    size = () if n is None else ("--n", str(n))
    digest = _document_digest(capsys, "--format", fmt, "verify", suite, *size)
    assert digest == VERIFY_DIGESTS[suite, fmt, n]


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
    # n = 9 needs a 21-site window, beyond the default --max-dim
    code, doc = _run_json(capsys, "verify", "algebra", "--n", "9")
    assert code == 3 and doc["status"] == "failure"
    assert doc["payload"]["code"] == "resource-limit"
    code, doc = _run_json(capsys, "verify", "algebra")
    assert code == 2


@pytest.mark.parametrize("suite", ["algebra", "charges", "classification"])
def test_verify_limits(capsys, suite):
    # n < 1 is a usage error; the window obeys --max-dim; n = 6 runs by
    # default and n = 7 meets the work cap
    for n in ("0", "-3"):
        code, doc = _run_json(capsys, "verify", suite, "--n", n)
        assert code == 2 and doc["payload"]["code"] == "usage-error"
    code, doc = _run_json(capsys, "--max-dim", "2047", "verify", suite, "--n", "4")
    assert code == 3 and doc["payload"] == {
        "code": "resource-limit", "reason": "states: 2^11 > --max-dim 2047"
    }
    code, doc = _run_json(capsys, "--max-dim", "2048", "verify", suite, "--n", "4")
    assert code == 0 and doc["payload"]["passed"]
    code, doc = _run_json(capsys, "verify", suite, "--n", "6")
    assert code == 0 and doc["payload"]["passed"] and len(doc["payload"]["checks"]) >= 2
    for n in ("7", "20"):
        code, doc = _run_json(capsys, "--max-dim", str(1 << 62), "verify", suite, "--n", n)
        assert code == 3 and doc["payload"] == {
            "code": "resource-limit", "reason": f"matrix suite: n = {n} > 6"
        }


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


_SPECTRUM_CASES = (
    [(n, "open", "all") for n in range(1, 7)]
    + [(n, "closed", "all") for n in range(2, 7)]
    + [(n, "open", str(s)) for n in (1, 2, 3) for s in range(2 * n + 4)]
    + [(n, "closed", str(s)) for n in (2, 3) for s in range(2 * n + 2)]
)


@pytest.mark.parametrize("n, edge, sector", _SPECTRUM_CASES)
def test_spectrum_text_matches_the_report_documents(capsys, n, edge, sector):
    # the spliced per-run text against json.dumps of report.to_json() and the
    # join of the report's eigenvalue rows
    report = spectrum(build_supercharge((0, n), edge), sector if sector == "all" else int(sector))
    argv = ["spectrum", "--n", str(n), "--edge", edge, "--sector", sector]
    code, out = _run(capsys, *argv)
    assert code == 0
    reference = {
        "command": "spectrum",
        "params": {"command": "spectrum", "edge": edge, "n": n, "sector": sector, "seed": 0},
        "payload": report.to_json(),
        "status": "ok",
        "elapsed_ms": json.loads(out)["elapsed_ms"],
    }
    assert out == json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n"
    code, out = _run(capsys, "--format", "csv", *argv)
    rows = [("index", "eigenvalue")] + list(enumerate(report.eigenvalues.tolist()))
    assert code == 0
    assert out == "\n".join(",".join(str(x) for x in row) for row in rows) + "\n"


def test_json_spectrum_makes_no_csv_rows(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("CSV rows made for a JSON document")

    monkeypatch.setattr(SpectrumReport, "csv_text", refuse)
    code, doc = _run_json(capsys, "spectrum", "--n", "3", "--edge", "open")
    assert code == 0 and len(doc["payload"]["eigenvalues"]) == 1 << 9


@pytest.mark.parametrize("sector, reason", [
    ("99", "sector must lie in [0, 13]"),
    ("-1", "sector must lie in [0, 13]"),
    ("x", "invalid literal for int() with base 10: 'x'"),
    # only a sign and ASCII digits: int() alone reads these as 3 and 10
    ("\u0663", "invalid literal for int() with base 10: '\u0663'"),
    (" 3", "invalid literal for int() with base 10: ' 3'"),
    ("1_0", "invalid literal for int() with base 10: '1_0'"),
])
def test_spectrum_checks_its_sector_before_building(capsys, monkeypatch, sector, reason):
    def refuse(*args, **kwargs):
        raise AssertionError("operators built before the sector was checked")

    monkeypatch.setattr(nicolai.cli, "build_supercharge", refuse)
    code, doc = _run_json(capsys, "spectrum", "--n", "5", "--edge", "open", "--sector", sector)
    assert code == 2
    del doc["elapsed_ms"]
    assert doc == {
        "command": "spectrum",
        "params": {"command": "spectrum", "edge": "open", "n": 5, "sector": sector, "seed": 0},
        "payload": {"code": "usage-error", "reason": reason},
        "status": "failure",
    }


def test_tabular_commands_write_their_csv(capsys, tmp_path):
    code, out = _run(capsys, "--format", "csv", "count", "--n", "5")
    assert code == 0 and out == "method,count\nenumerate,162\ntransfer,162\n"
    code, out = _run(capsys, "--format", "csv", "verify", "fixtures")
    assert code == 0 and out.splitlines()[:2] == ["check,passed", "xi_0_1: 2 sequences reproduced,True"]
    argv = ("generate", "--n", "3", "--target", "0001000", "--start", "occupied")
    code, out = _run(capsys, "--format", "csv", *argv)
    assert code == 0 and out == "step,k,l,values,adjoint\n0,2,3,---,False\n1,0,1,---,False\n"
    code, word = _run(capsys, *argv)
    word_file = tmp_path / "word.json"
    word_file.write_text(word)
    code, out = _run(capsys, "--format", "csv", "replay", "--word", str(word_file))
    assert code == 0 and out == "target,predicted_sign,steps,consistent\n0001000,1,2,True\n"


def test_verify_csv_parses_into_the_json_checks(capsys):
    # check names hold commas, so their CSV fields are quoted
    runs = [("fixtures",)] + [(s, "--n", str(n)) for s in ("algebra", "charges", "classification")
                              for n in range(1, 4)]
    for argv in runs:
        _, doc = _run_json(capsys, "verify", *argv)
        code, out = _run(capsys, "--format", "csv", "verify", *argv)
        header, *rows = csv.reader(io.StringIO(out))
        assert code == 0 and header == ["check", "passed"]
        assert rows == [[c["name"], str(c["passed"])] for c in doc["payload"]["checks"]]


def test_spectrum_resource_guard(capsys):
    code, doc = _run_json(capsys, "--max-dim", "8", "spectrum", "--n", "2", "--edge", "open")
    assert code == 3
    assert "max-dim" in doc["payload"]["reason"]


def test_dimension_guard_handles_huge_windows(capsys):
    # the guard never builds 2**size: a huge --n is a resource limit, not a
    # usage error about printing an integer of more than 4300 digits
    for argv in (
        ("spectrum", "--n", "100000"),
        ("generate", "--n", "20000", "--target", "0"),
        ("generate", "--n", "1000000000", "--target", "0"),
    ):
        code, doc = _run_json(capsys, *argv)
        assert code == 3 and doc["payload"]["code"] == "resource-limit"
        assert "--max-dim" in doc["payload"]["reason"]


def test_dimension_guard_agrees_with_the_dimension():
    # the states row refuses exactly the windows of more than --max-dim states
    from nicolai.cli import _CommandFailure, _check

    limits = list(range(-3, 70)) + [(1 << 40) + d for d in (-1, 0, 1)] + [-(1 << 40)]
    for max_dim in limits:
        for n, edge in itertools.product(range(1, 22), ("open", "closed", None)):
            size = 2 * n + (1 if edge == "closed" else 3)
            args = SimpleNamespace(n=n, max_dim=max_dim, **({"edge": edge} if edge else {}))
            try:
                _check(args, "states")
                refused = False
            except _CommandFailure as failure:
                refused = failure.code == 3
                assert failure.reason == f"states: 2^{size} > --max-dim {max_dim}"
            assert refused == ((1 << size) > max_dim), (n, edge, max_dim)


def test_transfer_count_cap(capsys):
    # 2 * 3**9011 has 4300 digits, the most Python prints by default
    code, doc = _run_json(capsys, "count", "--n", "9012", "--method", "transfer")
    assert code == 0 and doc["payload"]["count"] == 2 * 3**9011
    for n in ("9013", "1000000"):
        code, doc = _run_json(capsys, "count", "--n", n, "--method", "transfer")
        assert code == 3 and doc["payload"] == {
            "code": "resource-limit",
            "reason": f"printed digits: 2*3^{int(n) - 1} has more than 4300 digits",
        }


@pytest.fixture
def int_max_str_digits():
    # the interpreter's digit limit, restored after the test sets it
    kept = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(kept)


def test_transfer_count_follows_the_printed_digit_limit(capsys, monkeypatch, int_max_str_digits):
    # the count is refused before it is computed, under whatever limit is set
    monkeypatch.setattr("nicolai.cli.count_transfer", lambda n: pytest.fail("counted"))
    int_max_str_digits(1000)
    code, doc = _run_json(capsys, "count", "--n", "3000", "--method", "transfer")
    assert code == 3 and doc["payload"] == {
        "code": "resource-limit", "reason": "printed digits: 2*3^2999 has more than 1000 digits"
    }
    monkeypatch.undo()
    code, doc = _run_json(capsys, "count", "--n", "2096", "--method", "transfer")
    assert code == 0 and doc["payload"]["count"] == 2 * 3**2095  # 1000 digits
    # 0 lifts Python's limit; the transfer count keeps its default of 4300
    int_max_str_digits(0)
    code, doc = _run_json(capsys, "count", "--n", "9012", "--method", "transfer")
    assert code == 0 and doc["payload"]["count"] == 2 * 3**9011
    code, doc = _run_json(capsys, "count", "--n", "9013", "--method", "transfer")
    assert code == 3 and doc["payload"]["reason"] == (
        "printed digits: 2*3^9012 has more than 4300 digits"
    )


def test_transfer_count_under_a_low_digit_limit_exits_3():
    env = dict(os.environ, PYTHONPATH=str(Path(nicolai.__file__).resolve().parents[1]),
               PYTHONINTMAXSTRDIGITS="1000")
    proc = subprocess.run(
        [sys.executable, "-m", "nicolai.cli", "count", "--n", "3000", "--method", "transfer"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 3 and json.loads(proc.stdout)["payload"]["code"] == "resource-limit"


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
    # a fullwidth one and an Arabic-Indic one are digits to int(), not bits
    code, doc = _run_json(capsys, "generate", "--n", "1", "--target", "\uff11\u06611")
    assert code == 2 and doc["payload"] == {
        "code": "usage-error", "reason": "bad target bitstring: bits must be 0 or 1"
    }


def test_generate_and_replay_size_guard(capsys, tmp_path):
    # generate holds the 2 * 3**(n-1) ground configurations, 6 at n = 2, not
    # the 2^5 states of its window; replay holds one vector and has no limit
    code, doc = _run_json(capsys, "--max-dim", "5", "generate", "--n", "2", "--target", "00011")
    assert code == 3 and doc["payload"] == {
        "code": "resource-limit", "reason": "ground configurations: 2*3^1 > --max-dim 5"
    }
    code, doc = _run_json(capsys, "--max-dim", "6", "generate", "--n", "2", "--target", "00011")
    assert code == 0 and doc["payload"]["replay_verified"]
    word_file = tmp_path / "word.json"
    word_file.write_text(json.dumps(doc["payload"]))
    code, doc = _run_json(capsys, "--max-dim", "1", "replay", "--word", str(word_file))
    assert code == 0 and doc["payload"]["consistent"]
    # a 29-site word replays under the default --max-dim
    wide = {"start": "fock", "k": 0, "l": 14, "target": "0" * 29, "predicted_sign": 1, "steps": []}
    word_file.write_text(json.dumps(wide))
    code, out = _run(capsys, "replay", "--word", str(word_file))
    assert code == 0
    assert re.sub(r'"elapsed_ms":[^,}]+,', "", out) == (
        '{"command":"replay","params":{"command":"replay","seed":0,"word":"%s"},'
        '"payload":{"consistent":true,"predicted_sign":1,"steps":0,'
        '"target":"00000000000000000000000000000"},"status":"ok"}\n' % word_file
    )

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
    '{"start":"fock","k":0,"l":1,"target":"\uff11\u06611","predicted_sign":1,"steps":[]}',
])
def test_replay_malformed_word_is_usage_error(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, doc = _run_json(capsys, "replay", "--word", "-")
    assert code == 2 and doc["status"] == "failure"
    assert doc["payload"]["code"] == "usage-error"


@pytest.mark.parametrize("field, value, problem", [
    ("predicted_sign", 1.5, "predicted_sign must be a JSON integer"),
    ("predicted_sign", 0, "predicted_sign must be 1 or -1"),
    ("predicted_sign", True, "predicted_sign must be a JSON integer"),
    ("k", 0.0, "k must be a JSON integer"),
    ("l", True, "l must be a JSON integer"),
    ("target", [0, 0, 0], "target must be a JSON string"),
])
def test_replay_rejects_loosely_typed_words(capsys, monkeypatch, field, value, problem):
    word = {"start": "fock", "k": 0, "l": 1, "target": "000", "predicted_sign": 1, "steps": []}
    word[field] = value
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(word)))
    code, doc = _run_json(capsys, "replay", "--word", "-")
    assert code == 2 and doc["payload"]["code"] == "usage-error"
    assert doc["payload"]["reason"].startswith(problem)


@pytest.mark.parametrize("field, value, problem", [
    ("adjoint", "no", "adjoint must be a JSON boolean"),
    ("adjoint", 0, "adjoint must be a JSON boolean"),
    ("k", "0", "k must be a JSON integer"),
    ("values", ["-", "-", "-"], "values must be a JSON string"),
])
def test_replay_rejects_loosely_typed_steps(capsys, monkeypatch, field, value, problem):
    # the word is genuine, so only the loosely typed field can refuse it
    code, doc = _run_json(capsys, "generate", "--n", "1", "--target", "111")
    word = doc["payload"]
    word["steps"][0][field] = value
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(word)))
    code, doc = _run_json(capsys, "replay", "--word", "-")
    assert code == 2 and doc["payload"]["code"] == "usage-error"
    assert doc["payload"]["reason"].startswith(problem)


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_replay_deeply_nested_word_is_usage_error(capsys, monkeypatch, tmp_path, source):
    # json.loads raises RecursionError, not JSONDecodeError, on deep nesting
    text = "[" * 200_000
    if source == "file":
        word_file = tmp_path / "nested.json"
        word_file.write_text(text)
        path = str(word_file)
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        path = "-"
    code, doc = _run_json(capsys, "replay", "--word", path)
    assert code == 2 and doc["status"] == "failure" and doc["command"] == "replay"
    assert doc["payload"] == {"code": "usage-error", "reason": "word JSON is nested too deeply"}
    assert "Traceback" not in capsys.readouterr().err


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


def test_output_to_unwritable_path_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out = _run(capsys, "--output", str(target), "count", "--n", "2")
    doc = json.loads(out)  # one document on stdout, no traceback
    assert code == 2 and doc["status"] == "failure" and doc["command"] == "count"
    assert doc["payload"]["code"] == "usage-error"
    assert not target.parent.exists()


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


@pytest.mark.parametrize("message, reason", [
    ("Unable to allocate 256. GiB", "Unable to allocate 256. GiB"),
    ("", "MemoryError"),
])
def test_failed_allocation_is_resource_limit(capsys, monkeypatch, message, reason):
    # at n = 20 the search refuses the 41-site window before it allocates
    # anything (its int64 keys overflow), so no command line reaches a failed
    # allocation here; the patched search raises the MemoryError in its place
    def allocating(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("nicolai.ground._reachability", allocating)
    argv = ["--max-dim", str(1 << 62), "generate", "--n", "20", "--target", "0" * 41]
    code, out = _run(capsys, *argv)
    doc = json.loads(out)
    assert code == 3 and doc["status"] == "failure" and doc["command"] == "generate"
    assert doc["payload"] == {"code": "resource-limit", "reason": reason}
    assert "Traceback" not in capsys.readouterr().err


def test_generate_beyond_the_search_key_is_resource_limit(capsys):
    # from n = 16 (33 sites) two states no longer fit in one int64 search key
    code, out = _run(capsys, "--max-dim", str(1 << 62), "generate", "--n", "16",
                     "--target", "0" * 33)
    assert code == 3
    assert re.sub(r'"elapsed_ms":[^,}]+,', "", out) == (
        '{"command":"generate","params":{"command":"generate","n":16,"seed":0,'
        '"start":"fock","target":"000000000000000000000000000000000"},'
        '"payload":{"code":"resource-limit",'
        '"reason":"a search key of two 33-site states does not fit in int64"},'
        '"status":"failure"}\n'
    )


@pytest.mark.parametrize("argv", [
    ("--max-dim", "1099511627776", "spectrum", "--n", "15"),
    ("--max-dim", "1099511627776", "spectrum", "--edge", "closed", "--n", "16"),
])
def test_spectrum_beyond_the_packed_key_is_resource_limit(capsys, argv):
    # from 32 sites a packed key col * dim + row no longer fits in one int64;
    # the window is refused before any operator is allocated
    tracemalloc.start()
    try:
        code, out = _run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 1 << 20
    edge = "closed" if "closed" in argv else "open"
    assert re.sub(r'"elapsed_ms":[^,}]+,', "", out) == (
        '{"command":"spectrum","params":{"command":"spectrum","edge":"%s","n":%s,'
        '"sector":"all","seed":0},"payload":{"code":"resource-limit",'
        '"reason":"window of 33 sites is too large for packed keys"},'
        '"status":"failure"}\n' % (edge, argv[-1])
    )



# -- the size limits: each row of ``cli._LIMITS`` one past its limit, and the
# unchanged document at the limit ---------------------------------------------

_T13 = "0" * 27  # a ground configuration at n = 13


@pytest.mark.parametrize("argv, params, reason", [
    (["enumerate", "charges", "--n", "13"],
     '"command":"enumerate","kind":"charges","n":13,"seed":0',
     "ground configurations: 2*3^12 > --max-dim 524288"),
    (["--format", "csv", "enumerate", "ground-configs", "--n", "13"],
     '"command":"enumerate","kind":"ground-configs","n":13,"seed":0',
     "ground configurations: 2*3^12 > --max-dim 524288"),
    (["count", "--n", "13"], '"command":"count","method":"both","n":13,"seed":0',
     "ground configurations: 2*3^12 > --max-dim 524288"),
    (["count", "--n", "13", "--method", "enumerate"],
     '"command":"count","method":"enumerate","n":13,"seed":0',
     "ground configurations: 2*3^12 > --max-dim 524288"),
    (["count", "--n", "9013", "--method", "transfer"],
     '"command":"count","method":"transfer","n":9013,"seed":0',
     "printed digits: 2*3^9012 has more than 4300 digits"),
    (["generate", "--n", "13", "--target", _T13],
     '"command":"generate","n":13,"seed":0,"start":"fock","target":"%s"' % _T13,
     "ground configurations: 2*3^12 > --max-dim 524288"),
    (["--max-dim", "1062881", "generate", "--n", "13", "--target", _T13],
     '"command":"generate","n":13,"seed":0,"start":"fock","target":"%s"' % _T13,
     "ground configurations: 2*3^12 > --max-dim 1062881"),
    (["spectrum", "--n", "9"], '"command":"spectrum","edge":"open","n":9,"sector":"all","seed":0',
     "states: 2^21 > --max-dim 524288"),
    (["spectrum", "--n", "10", "--edge", "closed"],
     '"command":"spectrum","edge":"closed","n":10,"sector":"all","seed":0',
     "states: 2^21 > --max-dim 524288"),
    (["--max-dim", "127", "spectrum", "--n", "2"],
     '"command":"spectrum","edge":"open","n":2,"sector":"all","seed":0',
     "states: 2^7 > --max-dim 127"),
    (["verify", "algebra", "--n", "7"], '"command":"verify","n":7,"seed":0,"suite":"algebra"',
     "matrix suite: n = 7 > 6"),
    (["--max-dim", "8191", "verify", "charges", "--n", "5"],
     '"command":"verify","n":5,"seed":0,"suite":"charges"', "states: 2^13 > --max-dim 8191"),
])
def test_limit_refusals_pinned(capsys, argv, params, reason):
    code, out = _run(capsys, *argv)
    command = re.match(r'"command":"(\w+)"', params).group(1)
    assert code == 3
    assert re.sub(r'"elapsed_ms":[^,}]+,', "", out) == (
        '{"command":"%s","params":{%s},"payload":{"code":"resource-limit","reason":"%s"},'
        '"status":"failure"}\n' % (command, params, reason)
    )


# sha256 of documents at a limit, as ENUMERATE_DIGESTS (COUNT_DIGESTS has
# count --n 12); the generate ones are the documents printed under a raised
# --max-dim when n = 12 needed one.
LIMIT_DIGESTS = {
    ("enumerate", "charges", "--n", "12"):
        "f796e7a6b39def31d9a09df0d8e27cd740c30f778e13388ba93a4b554b70c40a",
    ("enumerate", "ground-configs", "--n", "12"):
        "be1906c71dd8a60288a1dc251dff2cf0c2108d8eb73ecd6c75154a1ac84194ed",
    ("--format", "csv", "enumerate", "ground-configs", "--n", "12"):
        "9cab541119bf3bb3e011d3ff2d04bf375c0c57084c83303d917f6b67b32a20f0",
    ("generate", "--n", "12", "--target", "0001000111000111110000111"):
        "da87b179984568f7e358474e9bc92184e4a77eeb21ef511bf943e8d36d2e56ba",
    ("generate", "--n", "12", "--target", "0000011100000100011000111", "--start", "occupied"):
        "ee1c5fc230b95876a6ef7daf9dc40f6e230805df080ba8c1d11d4dfa88915955",
}


@pytest.mark.parametrize("argv", sorted(LIMIT_DIGESTS))
def test_documents_at_the_limit_pinned(capsys, argv):
    assert _document_digest(capsys, *argv) == LIMIT_DIGESTS[argv]


def test_each_limit_admits_its_boundary(capsys):
    # at exactly --max-dim states or configurations the command runs, and
    # --max-dim does not enter the payload (test_verify_limits has verify)
    for argv in (["spectrum", "--n", "2"], ["spectrum", "--n", "3", "--edge", "closed"]):
        _, default = _run_json(capsys, *argv)
        code, doc = _run_json(capsys, "--max-dim", "128", *argv)
        assert code == 0 and doc["payload"] == default["payload"]
    code, doc = _run_json(capsys, "--max-dim", "6", "count", "--n", "2", "--method", "enumerate")
    assert code == 0 and doc["payload"]["count"] == 6
    code, doc = _run_json(capsys, "--max-dim", "6", "enumerate", "ground-configs", "--n", "2")
    assert code == 0 and doc["payload"]["count"] == 6
    code, doc = _run_json(capsys, "--max-dim", "5", "enumerate", "ground-configs", "--n", "2")
    assert code == 3 and doc["payload"]["reason"] == "ground configurations: 2*3^1 > --max-dim 5"
    # 2 * 3**12 = 1062882 configurations
    for max_dim in ("1062882", "2097152"):
        code, doc = _run_json(capsys, "--max-dim", max_dim, "generate", "--n", "13",
                              "--target", "000011000000001100000110000")
        assert code == 0 and doc["payload"]["replay_verified"] and len(doc["payload"]["steps"]) == 4


_HUGE = "1000000000000"


@pytest.mark.parametrize("argv", [
    ("spectrum", "--n", _HUGE),
    ("spectrum", "--edge", "closed", "--n", _HUGE),
    ("verify", "charges", "--n", _HUGE),
    ("enumerate", "ground-configs", "--n", _HUGE),
    ("count", "--n", _HUGE, "--method", "enumerate"),
    ("count", "--n", _HUGE, "--method", "transfer"),
    ("generate", "--n", _HUGE, "--target", "0"),
    ("--max-dim", str(1 << 62), "generate", "--n", _HUGE, "--target", "0"),
])
def test_a_huge_n_is_refused_at_once(capsys, argv):
    # no row builds its set's size past the limit
    tracemalloc.start()
    try:
        started = time.perf_counter()
        code, out = _run(capsys, *argv)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and elapsed < 0.05 and peak < 1 << 20
    assert json.loads(out)["payload"]["code"] == "resource-limit"


def test_every_row_refuses_a_huge_n_at_once():
    from nicolai.cli import _LIMITS, _CommandFailure, _check

    args = SimpleNamespace(n=10**12, max_dim=1 << 62, edge="open")
    for row in _LIMITS:
        tracemalloc.start()
        try:
            started = time.perf_counter()
            with pytest.raises(_CommandFailure) as refusal:
                _check(args, row)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refusal.value.code == 3 and refusal.value.reason.startswith(row + ": ")
        assert elapsed < 0.05 and peak < 1 << 20, row


@pytest.mark.parametrize("argv, params", [
    (("enumerate", "charges", "--n", "31"), '"kind":"charges","n":31,"seed":0'),
    (("count", "--n", "31", "--method", "enumerate"), '"method":"enumerate","n":31,"seed":0'),
])
def test_words_beyond_int64_are_resource_limit(capsys, argv, params):
    # 2 * 3**30 configurations pass a raised --max-dim, but their 63-letter
    # words do not fit in int64: refused before any word is made
    tracemalloc.start()
    try:
        code, out = _run(capsys, "--max-dim", str(1 << 62), *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 1 << 20
    assert re.sub(r'"elapsed_ms":[^,}]+,', "", out) == (
        '{"command":"%s","params":{"command":"%s",%s},"payload":{"code":"resource-limit",'
        '"reason":"words of 63 letters do not fit in int64"},"status":"failure"}\n'
        % (argv[0], argv[0], params)
    )

def test_count_keeps_no_word_list(capsys):
    # the 354,294 words of n = 12 take 2.8 MB as one int64 array
    tracemalloc.start()
    try:
        assert main(["count", "--n", "12"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["payload"]["count"] == 354294
    assert peak < 1 << 20


def _masked(out):
    return re.sub(rb'"elapsed_ms":[^,}]+,', b"", out)


# one command line per way a document is written: spliced JSON items, CSV
# bytes, CSV rows, plain JSON, spliced eigenvalues, and a failure document
_WRITER_LINES = [
    ["enumerate", "charges", "--n", "10"],
    ["--format", "csv", "enumerate", "ground-configs", "--n", "6"],
    ["--format", "csv", "count", "--n", "5"],
    ["count", "--n", "5"],
    ["spectrum", "--n", "3", "--edge", "open"],
    ["enumerate", "charges", "--n", "13"],
]


class _RawStdout(io.RawIOBase):
    """A raw binary stdout that takes at most 4096 bytes per write, as
    ``FileIO`` on a pipe may."""

    def __init__(self):
        self.received = bytearray()

    def writable(self):
        return True

    def write(self, data):
        taken = bytes(memoryview(data)[:4096])
        self.received += taken
        return len(taken)


@pytest.mark.parametrize("argv", _WRITER_LINES, ids=" ".join)
def test_partial_writes_deliver_the_whole_document(capsys, monkeypatch, argv):
    code, expected = _run(capsys, *argv)
    raw = _RawStdout()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
    assert main(argv) == code
    assert _masked(bytes(raw.received)) == _masked(expected.encode())


@pytest.mark.parametrize("argv", _WRITER_LINES, ids=" ".join)
def test_text_only_stdout_gets_the_same_text(capsys, argv):
    code, expected = _run(capsys, *argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == code
    assert _masked(out.getvalue().encode()) == _masked(expected.encode())


@pytest.mark.parametrize("argv", _WRITER_LINES[:5], ids=" ".join)
def test_output_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    target = tmp_path / "out"
    code, expected = _run(capsys, *argv)
    assert _run(capsys, "--output", str(target), *argv) == (code, "")
    assert _masked(target.read_bytes()) == _masked(expected.encode())


def _cli_env(unbuffered):
    env = dict(os.environ, PYTHONPATH=str(Path(nicolai.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_stdout_bytes_do_not_depend_on_buffering():
    outs = []
    for unbuffered in (True, False):
        runs = [
            subprocess.run([sys.executable, "-m", "nicolai.cli", *argv], env=_cli_env(unbuffered),
                           capture_output=True)
            for argv in (_WRITER_LINES[0], _WRITER_LINES[1], _WRITER_LINES[5])
        ]
        outs.append([(p.returncode, _masked(p.stdout), p.stderr) for p in runs])
    assert outs[0] == outs[1]
    assert [code for code, _, _ in outs[0]] == [0, 0, 3]


def test_document_refuses_a_marker_that_is_no_splice():
    # a spliced document whose params also hold a NUL cannot be split safely
    with pytest.raises(ValueError, match="2 splice markers for 1 spliced values"):
        _document("enumerate", {"kind": "\x00"}, {"items": _JSONText(b"[]")}, "ok", 0.0)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [
    ("count", "--n", "3"),  # a result document
    ("count", "--n", "13"),  # a failure document
    ("--help",),
])
def test_full_stdout_exits_two_in_silence(unbuffered, argv):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "nicolai.cli", *argv],
                              env=_cli_env(unbuffered), stdout=full, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (2, b"")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_exits_two_in_silence(unbuffered):
    # the reader stops after 10 bytes of an 18 MB document
    proc = subprocess.Popen(
        [sys.executable, "-m", "nicolai.cli", "enumerate", "charges", "--n", "12"],
        env=_cli_env(unbuffered), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{"command"'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (2, b"")


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


def test_commands_import_no_numpy_ma(tmp_path):
    # numpy's plain np.unique and np.union1d import numpy.ma on first use
    src = str(Path(nicolai.__file__).resolve().parents[1])
    word = str(tmp_path / "word.json")
    script = (
        "import contextlib, io, sys\n"
        "from nicolai.cli import main\n"
        "assert 'numpy.ma' not in sys.modules, 'after import'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['spectrum', '--n', '3', '--edge', 'open']) == 0\n"
        "    assert main(['spectrum', '--n', '3', '--edge', 'closed']) == 0\n"
        f"    assert main(['--output', {word!r}, 'generate', '--n', '4',\n"
        "                 '--target', '111000011', '--start', 'fock']) == 0\n"
        "    assert main(['generate', '--n', '4', '--target', '000111100',\n"
        "                 '--start', 'occupied']) == 0\n"
        f"    assert main(['replay', '--word', {word!r}]) == 0\n"
        "    assert main(['enumerate', 'charges', '--n', '4']) == 0\n"
        "    assert main(['--format', 'csv', 'enumerate', 'ground-configs', '--n', '4']) == 0\n"
        "    assert main(['count', '--n', '6']) == 0\n"
        "    for suite in ('algebra', 'charges', 'classification'):\n"
        "        assert main(['verify', suite, '--n', '2']) == 0\n"
        "    assert main(['verify', 'fixtures']) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'after main'\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# -- enumerate output against a json.dumps reference --------------------------


@functools.lru_cache(maxsize=None)
def _enumerate_reference(kind, n):
    """The payload items and CSV rows of ``enumerate`` built from objects."""
    if kind == "charges":
        items = [{"k": 0, "l": n, "values": f.to_string()} for f in enumerate_sequences(0, n)]
        rows = [("k", "l", "values")] + [(0, n, item["values"]) for item in items]
    else:
        items = [g.to_string() for g in enumerate_upsilon_hat(0, n)]
        rows = [("config",)] + [(s,) for s in items]
    return items, rows


@pytest.mark.parametrize("kind", ["charges", "ground-configs"])
@pytest.mark.parametrize("n", range(1, 11))
def test_enumerate_matches_a_json_dumps_reference(capsys, tmp_path, kind, n):
    items, rows = _enumerate_reference(kind, n)
    code, out = _run(capsys, "enumerate", kind, "--n", str(n))
    assert code == 0
    reference = {
        "command": "enumerate",
        "params": {"command": "enumerate", "kind": kind, "n": n, "seed": 0},
        "payload": {"k": 0, "l": n, "kind": kind, "count": len(items), "items": items},
        "status": "ok",
        "elapsed_ms": json.loads(out)["elapsed_ms"],
    }
    assert out == json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n"
    written = tmp_path / "out.json"
    code, out = _run(capsys, "--output", str(written), "enumerate", kind, "--n", str(n))
    assert code == 0 and out == ""
    text = written.read_text()
    reference["elapsed_ms"] = json.loads(text)["elapsed_ms"]
    assert text == json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n"
    code, out = _run(capsys, "--format", "csv", "enumerate", kind, "--n", str(n))
    assert code == 0
    assert out == "\n".join(",".join(str(x) for x in row) for row in rows) + "\n"


@pytest.mark.parametrize("kind", ["charges", "ground-configs"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_enumerate_keeps_its_failure_documents(capsys, kind, fmt):
    code, doc = _run_json(capsys, "--format", fmt, "enumerate", kind, "--n", "0")
    assert code == 2 and doc["status"] == "failure"
    assert doc["payload"] == {"code": "usage-error", "reason": "k < l required"}
    code, doc = _run_json(capsys, "--format", fmt, "enumerate", kind, "--n", "13")
    assert code == 3 and doc["status"] == "failure"
    assert doc["payload"] == {
        "code": "resource-limit", "reason": "ground configurations: 2*3^12 > --max-dim 524288"
    }


# -- bad command lines and fuzzed inputs --------------------------------------


@pytest.mark.parametrize("argv", [
    ("generate", "--n", "1", "--target", "000", "--start", "nope"),
    ("generate", "--n", "abc", "--target", "000"),
    ("frobnicate",),
    (),
    ("count", "--n", "3", "--bogus", "1"),
    ("count", "--n"),
    ("count", "--n", "3", "--format", "csv"),
    ("count", "--n", "3", "--meth", "both"),
    ("verify",),
    ("--seed", "x", "count", "--n", "3"),
    ("count", "--n", "3", "extra"),
    ("\x00",),
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


def test_help_lists_the_commands_and_global_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for name in ("enumerate", "count", "verify", "spectrum", "generate", "replay"):
        assert re.search(rf"^ +{name} +\S", out, re.M), name
    for flag in ("--format", "--seed", "--max-dim", "--output"):
        assert flag in out


@pytest.mark.parametrize("argv, shown", [
    (["spectrum", "--help"], "--edge {open,closed}"),
    (["spectrum", "--n", "3", "-h"], "--sector SECTOR"),
    (["verify", "algebra", "--help"], "{algebra,charges,classification,fixtures}"),
    (["count", "-h"], "--method {transfer,enumerate,both}"),
])
def test_command_help_exits_zero(capsys, argv, shown):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith(f"usage: nicolai {argv[0]}") and shown in out


# -- the command-line grammar, pinned to the argparse front end it replaced ----

_GEN_FOCK = ["generate", "--n", "8", "--target", "00000000000000000", "--start", "fock"]


@pytest.mark.parametrize("argv, code, params", [
    # README examples
    (["enumerate", "ground-configs", "--n", "2"], 0,
     {"command": "enumerate", "kind": "ground-configs", "n": 2, "seed": 0}),
    (["enumerate", "charges", "--n", "1"], 0,
     {"command": "enumerate", "kind": "charges", "n": 1, "seed": 0}),
    (["count", "--n", "8"], 0, {"command": "count", "method": "both", "n": 8, "seed": 0}),
    (["verify", "algebra", "--n", "3"], 0,
     {"command": "verify", "suite": "algebra", "n": 3, "seed": 0}),
    (["verify", "charges", "--n", "4"], 0,
     {"command": "verify", "suite": "charges", "n": 4, "seed": 0}),
    (["verify", "classification", "--n", "4"], 0,
     {"command": "verify", "suite": "classification", "n": 4, "seed": 0}),
    (["verify", "fixtures"], 0, {"command": "verify", "suite": "fixtures", "seed": 0}),
    (["spectrum", "--n", "2", "--edge", "open", "--sector", "3"], 0,
     {"command": "spectrum", "edge": "open", "n": 2, "sector": "3", "seed": 0}),
    (["generate", "--n", "2", "--target", "00011", "--start", "fock"], 0,
     {"command": "generate", "n": 2, "seed": 0, "start": "fock", "target": "00011"}),
    (["replay", "--word", "WORD"], 0, {"command": "replay", "seed": 0, "word": "WORD"}),
    # benchmark commands
    (["spectrum", "--n", "5", "--edge", "open"], 0,
     {"command": "spectrum", "edge": "open", "n": 5, "sector": "all", "seed": 0}),
    (["spectrum", "--n", "6", "--edge", "closed"], 0,
     {"command": "spectrum", "edge": "closed", "n": 6, "sector": "all", "seed": 0}),
    (["verify", "algebra", "--n", "4"], 0,
     {"command": "verify", "suite": "algebra", "n": 4, "seed": 0}),
    (["count", "--n", "12"], 0, {"command": "count", "method": "both", "n": 12, "seed": 0}),
    (["enumerate", "charges", "--n", "10"], 0,
     {"command": "enumerate", "kind": "charges", "n": 10, "seed": 0}),
    (_GEN_FOCK, 0, {"command": "generate", "n": 8, "seed": 0, "start": "fock",
                    "target": "00000000000000000"}),
    (["generate", "--n", "8", "--target", "11111111000000000", "--start", "occupied"], 0,
     {"command": "generate", "n": 8, "seed": 0, "start": "occupied",
      "target": "11111111000000000"}),
    # global flags
    (["--format", "csv", "enumerate", "charges", "--n", "13"], 3,
     {"command": "enumerate", "kind": "charges", "n": 13, "seed": 0}),
    (["--format", "json", "count", "--n", "3"], 0,
     {"command": "count", "method": "both", "n": 3, "seed": 0}),
    (["--seed", "7", "verify", "algebra", "--n", "2"], 0,
     {"command": "verify", "suite": "algebra", "n": 2, "seed": 7}),
    (["--max-dim", "100", "spectrum", "--n", "3"], 3,
     {"command": "spectrum", "edge": "open", "n": 3, "sector": "all", "seed": 0}),
    (["--output", "OUT", "count", "--n", "3"], 0,
     {"command": "count", "method": "both", "n": 3, "seed": 0}),
    (["--seed=5", "--max-dim=64", "--output=OUT", "--format=json", "count", "--n", "2"], 0,
     {"command": "count", "method": "both", "n": 2, "seed": 5}),
    # --name=value, repeated options, values that start with "-"
    (["spectrum", "--n=3", "--edge=closed"], 0,
     {"command": "spectrum", "edge": "closed", "n": 3, "sector": "all", "seed": 0}),
    (["count", "--n", "3", "--method", "enumerate", "--n", "4"], 0,
     {"command": "count", "method": "enumerate", "n": 4, "seed": 0}),
    (["count", "--n", "-1"], 2, {"command": "count", "method": "both", "n": -1, "seed": 0}),
    (["spectrum", "--n", "3", "--sector", "-1"], 2,
     {"command": "spectrum", "edge": "open", "n": 3, "sector": "-1", "seed": 0}),
    (["verify", "--n", "2", "charges"], 0,
     {"command": "verify", "suite": "charges", "n": 2, "seed": 0}),
    (["replay", "--word", "-"], 0, {"command": "replay", "seed": 0, "word": "-"}),
])
def test_command_line_params_pinned(capsys, monkeypatch, tmp_path, argv, code, params):
    word, out_path = tmp_path / "word.json", tmp_path / "out.json"

    def fill(value):
        if not isinstance(value, str):
            return value
        return value.replace("WORD", str(word)).replace("OUT", str(out_path))

    if "replay" in argv:
        assert main(["--output", str(word)] + _GEN_FOCK) == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(word.read_text()))
    assert main([fill(a) for a in argv]) == code
    out = capsys.readouterr().out
    doc = json.loads(out_path.read_text() if any("OUT" in a for a in argv) else out)
    assert doc["params"] == {k: fill(v) for k, v in params.items()}


@pytest.mark.parametrize("argv, label, value", [
    # int() alone reads each of these values as a number
    (["count", "--n", "1_0"], "nicolai count: argument --n", "1_0"),
    (["count", "--n", " 3"], "nicolai count: argument --n", " 3"),
    (["count", "--n", "3\n"], "nicolai count: argument --n", "3\n"),
    (["count", "--n", "\u0663"], "nicolai count: argument --n", "\u0663"),
    (["count", "--n=+\uff13"], "nicolai count: argument --n", "+\uff13"),
    (["--max-dim", "1_0_0", "count", "--n", "2"], "nicolai: argument --max-dim", "1_0_0"),
    (["--seed", "\u0667", "verify", "algebra", "--n", "2"], "nicolai: argument --seed", "\u0667"),
    # int() refuses these too
    (["verify", "algebra", "--n", "2_"], "nicolai verify: argument --n", "2_"),
    (["count", "--n", "-"], "nicolai count: argument --n", "-"),
    (["count", "--n", ""], "nicolai count: argument --n", ""),
    (["count", "--n", "+-3"], "nicolai count: argument --n", "+-3"),
])
def test_integer_options_take_a_sign_and_ascii_digits_only(capsys, argv, label, value):
    code, doc = _run_json(capsys, *argv)
    assert code == 2
    del doc["elapsed_ms"]
    assert doc == {
        "command": None,
        "params": {"argv": argv},
        "payload": {"code": "usage-error", "reason": f"{label}: invalid int value: {value!r}"},
        "status": "failure",
    }


@pytest.mark.parametrize("value, n", [("+3", 3), ("003", 3), ("-0", 0)])
def test_integer_options_read_signed_ascii_digits(capsys, value, n):
    code, doc = _run_json(capsys, "count", "--n", value, "--method", "transfer")
    assert doc["params"]["n"] == n and code == (0 if n else 2)


def test_commands_import_no_argument_parser():
    src = str(Path(nicolai.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, sys\n"
        "from nicolai.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['count', '--n', '3']) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale', 'csv'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def _readme_command_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    return [line[1:] for line in lines if line[:1] == ["nicolai"]]


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    lines = _readme_command_lines()
    assert len(lines) >= 10 and ["replay", "--word", "word.json"] in lines
    for argv in lines:
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if target is not None:
            (tmp_path / target).write_text(out)
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
@example(0, "\x00", "fock")  # a param whose JSON text is that of a splice marker
@example(2, "\x00", "occupied")
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
