import numpy as np
import pytest

from permanental import markov
from permanental.errors import NotTransient
from permanental.markov import (
    TransientChain,
    green_kernel,
    random_transient_chain,
    validate_appendix_lemma,
)

from conftest import brownian_min_matrix


def test_green_kernel_two_state_swap():
    chain = TransientChain(np.array([[0.0, 0.5], [0.5, 0.0]]))
    np.testing.assert_allclose(
        green_kernel(chain), [[4 / 3, 2 / 3], [2 / 3, 4 / 3]], atol=1e-12
    )


def test_green_kernel_no_moves_is_identity():
    chain = TransientChain(np.zeros((3, 3)))
    np.testing.assert_allclose(green_kernel(chain), np.eye(3))


def test_green_kernel_inverse_relation():
    chain = random_transient_chain(5, 0.3, seed=9)
    K = green_kernel(chain)
    np.testing.assert_allclose(K @ (np.eye(5) - chain.P), np.eye(5), atol=1e-10)
    assert K.min() >= 0.0
    assert (np.diag(K) >= 1.0 - 1e-12).all()


def test_not_transient_stochastic_matrix():
    P = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(NotTransient):
        TransientChain(P)


def test_not_transient_negative_entry():
    with pytest.raises(NotTransient):
        TransientChain(np.array([[-0.1, 0.2], [0.1, 0.3]]))


def test_appendix_lemma_two_state_kernel():
    rep = validate_appendix_lemma(np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]]))
    assert rep.passed
    assert rep.positive_row_sums
    np.testing.assert_allclose(rep.row_sums, [0.5, 0.5], atol=1e-12)


def test_appendix_lemma_brownian_min_row_sums():
    # inverse is a valid M-matrix but only one row sum is positive; the
    # report carries the exact values instead of failing
    rep = validate_appendix_lemma(brownian_min_matrix(4))
    assert rep.passed
    assert not rep.positive_row_sums
    np.testing.assert_allclose(rep.row_sums, [1.0, 0.0, 0.0, 0.0], atol=1e-10)
    assert rep.column_dominated


def test_appendix_lemma_rejects_non_m_kernel():
    rep = validate_appendix_lemma(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not rep.passed
    assert rep.reason


def test_appendix_lemma_reports_only_validation_failures(monkeypatch):
    # an internal fault is not a failed check: it propagates (CLI exit 1)
    def broken(*args, **kwargs):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(markov, "validate_m_matrix", broken)
    with pytest.raises(RuntimeError, match="internal fault"):
        validate_appendix_lemma(np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]]))


def test_random_chain_row_sums_bounded_by_kill():
    chain = random_transient_chain(2, 0.5, seed=1)
    assert chain.P.sum(axis=1).max() <= 0.5 + 1e-12


def test_random_chain_deterministic():
    a = random_transient_chain(4, 0.4, seed=77)
    b = random_transient_chain(4, 0.4, seed=77)
    np.testing.assert_array_equal(a.P, b.P)
    c = random_transient_chain(4, 0.4, seed=78)
    assert np.any(a.P != c.P)


def test_hundred_chains_pass_appendix_lemma():
    for i in range(100):
        n = 2 + i % 5  # n in 2..6
        chain = random_transient_chain(n, 0.4, seed=10_000 + i)
        K = green_kernel(chain)
        rep = validate_appendix_lemma(K)
        assert rep.passed, rep.reason
        assert rep.positive_row_sums
        assert rep.column_dominated
