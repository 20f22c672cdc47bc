"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Counting and table
criteria are exact integer statements; operator identities are exact sparse
integer matrix statements; only eigenvalue comparisons carry the stated
1e-9 float tolerance.
"""

import time

import numpy as np

from nicolai.charges import ConservationSequence, enumerate_sequences, enumerate_union
from nicolai.fixtures import load_fixture
from nicolai.fock import FockVector, OccupationConfig
from nicolai.ground import (
    GenerationWord,
    count_transfer,
    enumerate_upsilon_hat,
    generation_table,
    replay_word_config,
    replay_word_matrix,
)
from nicolai.intrank import integer_rank, rows_from_csr
from nicolai.model import Interval, build_supercharge, spectrum
from nicolai.verify import (
    algebra_suite,
    charges_suite,
    classification_suite,
    fixtures_suite,
)
from oracles import cross_oracle_suite
from sparse_oracle import csr


def _report(number, label, passed, started, detail=""):
    elapsed = time.perf_counter() - started
    status = "PASS" if passed else "FAIL"
    suffix = f" | {detail}" if detail else ""
    print(f"[acceptance] criterion {number} {status} ({elapsed:.2f}s) {label}{suffix}")
    assert passed, f"criterion {number} failed: {label}"


def test_criterion_1_counting():
    started = time.perf_counter()
    ok = True
    for n in range(1, 11):
        enumerated = len(enumerate_upsilon_hat(0, n))
        transferred = count_transfer(n)
        ok &= enumerated == transferred == 2 * 3 ** (n - 1)
    ok &= count_transfer(3) == 18
    ok &= len(load_fixture("upsilon_0_3")["configs"]) == 18
    _report(1, "ground-state count 2*3^(n-1), enumeration == transfer, n = 1..10",
            ok, started)


def test_criterion_2_appendix_fixtures():
    started = time.perf_counter()
    expected_sizes = {"xi_0_1": 2, "xi_0_2": 6, "xi_0_3": 18, "xi_0_4": 54}
    ok = True
    for name, size in expected_sizes.items():
        table = load_fixture(name)
        produced = {f.to_string() for f in enumerate_sequences(table["k"], table["l"])}
        ok &= produced == set(table["sequences"]) and len(produced) == size
    ok &= all(c.passed for c in fixtures_suite())
    _report(2, "conservation-sequence tables reproduced exactly (2, 6, 18, 54)",
            ok, started)


def test_criterion_3_superalgebra_identities():
    started = time.perf_counter()
    ok = True
    for n in range(1, 5):
        ok &= all(c.passed for c in algebra_suite(n))
    _report(3, "Q^2 = Q*^2 = 0, H = {Q,Q*}, [H,Q] = [H,Q*] = 0, {(-1)^N,Q} = 0, "
               "[H,N] = 0 for n = 1..4, both edge modes, exact", ok, started)


def test_criterion_4_hidden_symmetry():
    started = time.perf_counter()
    ok = True
    total = 0
    for n in range(1, 5):
        total += len(enumerate_union(0, n))
        ok &= all(c.passed for c in charges_suite(n))
    _report(4, f"conservation of all {total} charges (commutators and "
               "two-sided vanishing products), n = 1..4, exact", ok, started)


def test_criterion_5_classification():
    started = time.perf_counter()
    ok = True
    for n in range(1, 5):
        ok &= all(c.passed for c in classification_suite(n))
    _report(5, "open-edge SUSY <=> open-boundary ground config over all "
               "2^(2n+1) configurations, and open => close, n = 1..4", ok, started)


def _explicit_constructions():
    def const(k, l, sign):
        return ConservationSequence(k, l, (sign,) * (2 * (l - k) + 1))

    yield 2, "11100", [const(0, 1, 1)]
    yield 2, "00111", [const(1, 2, 1)]
    yield 2, "11111", [const(0, 2, 1)]
    yield 2, "00011", [const(0, 2, 1), const(0, 1, -1)]
    yield 2, "11000", [const(0, 2, 1), const(1, 2, -1)]
    yield 3, "0001000", [const(0, 3, 1), const(2, 3, -1), const(0, 1, -1)]
    yield 3, "1110111", [const(2, 3, 1), const(0, 1, 1)]
    yield 3, "0000011", [const(0, 3, 1), const(0, 2, -1)]
    yield 3, "0000111", [const(2, 3, 1)]
    yield 3, "0001111", [const(0, 3, 1), const(0, 1, -1)]
    yield 3, "0011111", [const(1, 3, 1)]
    yield 3, "1111100", [const(0, 2, 1)]
    yield 3, "1111000", [const(0, 3, 1), const(2, 3, -1)]
    yield 3, "1110000", [const(0, 1, 1)]
    yield 3, "1100000", [const(0, 3, 1), const(1, 3, -1)]


def test_criterion_6_generation():
    started = time.perf_counter()
    ok = True
    words = 0
    for n in range(1, 7):
        for start in ("fock", "occupied"):
            table = generation_table(0, n, start)
            ok &= len(table) == 2 * 3 ** (n - 1)
            for text, word in table.items():
                cfg, sign = replay_word_config(word)
                ok &= cfg.to_string() == text and sign == word.predicted_sign
                ok &= replay_word_matrix(word) == FockVector.from_config(cfg, sign)
                words += 1
    # published explicit constructions reproduce their targets up to sign
    for n, target_text, steps in _explicit_constructions():
        window = Interval(0, n).inner
        target = OccupationConfig.from_string(window, target_text)
        word = GenerationWord("fock", 0, n, tuple((f, False) for f in steps), target, 1)
        cfg, sign = replay_word_config(word)
        ok &= cfg == target
        ok &= replay_word_matrix(word) == FockVector.from_config(cfg, sign)
    _report(6, f"replay-verified generation words for all targets, n = 1..6, "
               f"both starts ({words} words), plus published constructions",
            ok, started)


def test_criterion_7_spectral_properties():
    started = time.perf_counter()
    ok = True
    reported = []
    cases = [(n, "open") for n in (1, 2, 3)] + [(n, "closed") for n in (2, 3)]
    for n, mode in cases:
        m = build_supercharge((0, n), mode)
        rep = spectrum(m, "all")
        evals = np.array(rep.eigenvalues)
        ok &= bool(evals.min() >= -1e-9)
        rank_q = integer_rank(rows_from_csr(csr(m.Q)))
        zeros = m.window.dimension - rank_q
        a = np.sort(np.linalg.eigvalsh(csr(m.Q @ m.Qdag).toarray()))[zeros:]
        b = np.sort(np.linalg.eigvalsh(csr(m.Qdag @ m.Q).toarray()))[zeros:]
        ok &= bool(np.allclose(a, b, atol=1e-9))
        classical = len(enumerate_upsilon_hat(0, n))
        ok &= rep.kernel_dimension >= classical
        reported.append(f"n={n},{mode}: ker={rep.kernel_dimension} (classical {classical})")
    _report(7, "spectra >= -1e-9, paired nonzero spectra of QQ* and Q*Q, "
               "exact kernel >= classical count, n = 1..3",
            ok, started, detail="; ".join(reported))


def test_criterion_8_cross_oracle():
    started = time.perf_counter()
    checks = cross_oracle_suite(pairs=500, seed=0)
    _report(8, "config-level charge action == matrix application with signs, "
               "500 seeded pairs", all(c.passed for c in checks), started)
