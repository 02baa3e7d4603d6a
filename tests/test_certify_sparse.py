"""The per-coordinate certificates against the dense (n, T) reference,
and the size of the multiplier log."""

import numpy as np
import pytest

from bodychase import (
    FractionalPoint,
    HalfspaceConstraint,
    MultiplierLog,
    RecourseLedger,
    build_refined_dual,
    build_warmup_dual,
    certify_run,
    process_constraint,
    refine_ytilde,
)
from bodychase.certify import check_dual_feasibility, max_window_sums
from bodychase.runner import apply_freeze

from oracles import (
    coeff_matrices,
    dense_check_dual_feasibility,
    dense_max_window_sums,
    dense_r,
    dense_refined_r_bar,
    dense_warmup_r_bar,
    random_mixed_stream,
)

REL = 1e-12


def stream_with_freezes(rng, n, T, eps):
    """Random rows with a clamp of one live coordinate every few steps."""
    w = rng.uniform(0.5, 2.0, size=n)
    x = FractionalPoint.zeros(n, w)
    log, ledger = MultiplierLog(w), RecourseLedger()
    for t in range(T):
        live = np.flatnonzero(x.values > 1e-9)
        if live.size and t % 4 == 3:
            x = apply_freeze(x, rng.choice(live, size=min(2, live.size), replace=False),
                             ledger, log)
            continue
        sup = rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False)
        coeffs = {int(i): float(rng.uniform(1.0, 8.0)) for i in sup}
        if live.size and rng.random() < 0.3:
            row = HalfspaceConstraint.packing({int(i): coeffs.get(int(i), 2.0) for i in live[:3]})
        else:
            row = HalfspaceConstraint.covering(coeffs)
        x = process_constraint(x, row, eps, ledger=ledger, log=log)
    return log


def assert_matches_dense(log, cert, dense_r_bar):
    n, T = log.n, log.horizon
    _, _, y, z = coeff_matrices(log)
    A = cert.scaling
    y_ref = cert.ytilde if cert.ytilde is not None else y
    assert cert.objective == pytest.approx(float((y_ref / A).sum() - (z / A).sum()), rel=REL, abs=1e-300)
    r = dense_r(cert.r_bar, n, T)
    np.testing.assert_allclose(r, dense_r_bar, rtol=REL, atol=0.0)
    dense = dense_check_dual_feasibility(log, cert.y_bar, cert.z_bar, dense_r_bar)
    assert cert.max_violation == pytest.approx(dense, rel=REL, abs=1e-15)


@pytest.mark.parametrize("eps", [0.25, 1.0])
def test_sparse_certificates_match_dense_reference(eps):
    rng = np.random.default_rng(int(eps * 100) + 3)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        T = int(rng.integers(1, 41))
        log, _, _, w = random_mixed_stream(rng, n, T, eps)
        # coordinates that never appear
        log.extend_weights(np.concatenate([w, rng.uniform(0.5, 2.0, size=2)]))
        warm = build_warmup_dual(log, eps)
        assert_matches_dense(log, warm, dense_warmup_r_bar(log, eps))
        ytilde = refine_ytilde(log, eps)
        np.testing.assert_allclose(max_window_sums(log, ytilde),
                                   dense_max_window_sums(log, ytilde), rtol=REL, atol=0.0)
        refined = build_refined_dual(log, ytilde, eps)
        assert_matches_dense(log, refined, dense_refined_r_bar(log, ytilde, eps))


@pytest.mark.parametrize("eps", [0.25, 1.0])
def test_sparse_warmup_matches_dense_reference_with_freezes(eps):
    rng = np.random.default_rng(int(eps * 100) + 4)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        log = stream_with_freezes(rng, n, int(rng.integers(4, 41)), eps)
        assert log.has_freeze
        warm = build_warmup_dual(log, eps)
        assert_matches_dense(log, warm, dense_warmup_r_bar(log, eps))


def test_sparse_checker_sees_what_the_dense_one_sees():
    # damage the movement duals on and between appearances; both checkers
    # must report the same worst row or bound
    rng = np.random.default_rng(8)
    eps = 0.5
    log, _, _, _ = random_mixed_stream(rng, 5, 30, eps)
    cert = build_refined_dual(log, refine_ytilde(log, eps), eps)
    for _ in range(30):
        i = int(rng.choice(list(cert.r_bar.after)))
        j = int(rng.integers(0, cert.r_bar.after[i].shape[0]))
        cert.r_bar.after[i][j] += float(rng.uniform(-0.3, 0.3))
        cert.r_bar.start[int(rng.integers(0, log.n))] += float(rng.uniform(-0.2, 0.2))
        sparse = check_dual_feasibility(log, cert.y_bar, cert.z_bar, cert.r_bar)
        dense = dense_check_dual_feasibility(log, cert.y_bar, cert.z_bar,
                                             dense_r(cert.r_bar, log.n, log.horizon))
        assert sparse == pytest.approx(dense, rel=REL, abs=1e-15)


def test_log_stays_sparse():
    rng = np.random.default_rng(2)
    n, eps = 10**5, 0.5
    w = np.ones(n)
    x = FractionalPoint.zeros(n, w)
    log, ledger = MultiplierLog(w), RecourseLedger()
    support = 0
    for t in range(40):
        sup = rng.choice(n, size=int(rng.integers(1, 9)), replace=False)
        row = HalfspaceConstraint.covering({int(i): float(rng.uniform(1.0, 4.0)) for i in sup})
        x = process_constraint(x, row, eps, ledger=ledger, log=log)
        support += sup.size
    x = apply_freeze(x, np.flatnonzero(x.values)[:3], ledger, log)
    support += 3
    for step in log.steps:
        assert step.x_before.shape == step.x_after.shape == step.indices.shape
    floats = sum(s.coeffs.size + s.x_before.size + s.x_after.size for s in log.steps)
    assert floats == 3 * support
    assert sum(len(times) for times in log.appearances.values()) == support
    summary = certify_run(log, ledger, eps)
    assert summary["warmup_bound"] > 0.0
