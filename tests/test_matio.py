import json

import numpy as np
import pytest

from permanental import matio

from conftest import save_spec_file


def test_json_round_trip(tmp_path):
    m = np.array([[1.5, -0.25], [0.0, 2.0]])
    path = tmp_path / "m.json"
    matio.save_matrix(str(path), m)
    obj = json.loads(path.read_text())
    assert obj["n"] == 2
    np.testing.assert_array_equal(matio.load_matrix(str(path)), m)


def test_text_round_trip(tmp_path):
    m = np.array([[1 / 3, 2.0], [-5.0, 1e-17]])
    path = tmp_path / "m.txt"
    matio.save_matrix(str(path), m)
    np.testing.assert_array_equal(matio.load_matrix(str(path)), m)


def test_spec_round_trip_kernel(tmp_path):
    path = tmp_path / "spec.json"
    save_spec_file(str(path), 1.5, kernel=np.eye(2))
    alpha, K, A = matio.load_spec_file(str(path))
    assert alpha == 1.5
    np.testing.assert_array_equal(K, np.eye(2))
    assert A is None


def test_spec_round_trip_a_matrix(tmp_path):
    path = tmp_path / "spec.json"
    save_spec_file(str(path), 0.5, a_matrix=[[2.0, -1.0], [-1.0, 2.0]])
    alpha, K, A = matio.load_spec_file(str(path))
    assert K is None
    assert A[0][0] == 2.0


def test_spec_requires_exactly_one_matrix(tmp_path):
    path = tmp_path / "spec.json"
    with pytest.raises(ValueError):
        save_spec_file(str(path), 1.0)


def test_declared_n_mismatch(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"n": 3, "rows": [[1.0, 0.0], [0.0, 1.0]]}')
    with pytest.raises(ValueError):
        matio.load_matrix(str(path))
