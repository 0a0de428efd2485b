"""Matrix and model-spec file formats.

JSON matrices are ``{"n": int, "rows": [[...], ...]}``; the text format is
whitespace-delimited, one row per line.  A model spec is a JSON object with
``alpha`` and either ``kernel`` (K) or ``A`` (its inverse), each a matrix
object.  A JSON cell and ``alpha`` are numbers (an int or a float, not a
bool) that fit in a float, and ``n`` is an int; anything else is refused
with ValueError.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .linalg import as_square_matrix


def matrix_to_json_obj(m) -> dict:
    a = as_square_matrix(m)
    return {"n": int(a.shape[0]), "rows": [[float(x) for x in row] for row in a]}


def _number(value, what: str) -> float:
    """A JSON number as a float: an int or a float, not a bool, that fits."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must fit in a float, got an integer beyond its range") from None


def _numbers(value, what: str):
    """Nested JSON lists of numbers with every number as a float."""
    if type(value) is list:
        return [_numbers(v, what) for v in value]
    return _number(value, what)


def matrix_from_json_obj(obj: dict) -> np.ndarray:
    if not (isinstance(obj, dict) and isinstance(obj.get("rows"), list)):
        raise ValueError('a matrix must be a JSON object with a "rows" list')
    a = as_square_matrix(_numbers(obj["rows"], "a matrix cell"))
    if "n" in obj:
        if type(obj["n"]) is not int:
            raise ValueError(f"declared n must be an integer, got {obj['n']!r}")
        if obj["n"] != a.shape[0]:
            raise ValueError(f"declared n = {obj['n']} does not match {a.shape[0]} rows")
    return a


def save_matrix(path: str, m) -> None:
    a = as_square_matrix(m)
    if _is_json(path):
        with open(path, "w") as fh:
            json.dump(matrix_to_json_obj(a), fh, sort_keys=True)
            fh.write("\n")
    else:
        with open(path, "w") as fh:
            for row in a:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def load_matrix(path: str) -> np.ndarray:
    if _is_json(path):
        with open(path) as fh:
            return matrix_from_json_obj(json.load(fh))
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split()])
    return as_square_matrix(rows)


def load_spec_file(path: str) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Return (alpha, K, A) from a spec file; exactly one of K, A is set."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("a spec must be a JSON object")
    alpha = _number(obj.get("alpha"), "spec alpha")
    kernel = obj.get("kernel")
    a_mat = obj.get("A")
    if (kernel is None) == (a_mat is None):
        raise ValueError("spec must contain exactly one of 'kernel' or 'A'")
    K = matrix_from_json_obj(kernel) if kernel is not None else None
    A = matrix_from_json_obj(a_mat) if a_mat is not None else None
    return alpha, K, A


def _is_json(path: str) -> bool:
    return os.path.splitext(path)[1].lower() == ".json"
