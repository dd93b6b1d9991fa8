"""Sort-based set algebra: differential checks against numpy, and a tripwire.

``src/repro`` builds sorted-unique page sets with
:func:`repro.common.arrays.sorted_unique` and passes
``assume_unique=True`` wherever both operands are sorted-unique by
construction, because numpy >= 2.3 answers a plain ``np.unique`` (and the
set operations that call it) through a hash table that is several times
slower at window-loop sizes.  The differential tests pin that each
rewrite returns numpy's exact array; the tripwire fails if a hash-path
call comes back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.arrays import sorted_unique

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

ints = st.lists(st.integers(-40, 40), max_size=60)
dtypes = st.sampled_from([np.int8, np.int32, np.int64])


@settings(max_examples=150)
@given(values=ints, dtype=dtypes)
@example(values=[], dtype=np.int64)
@example(values=[7], dtype=np.int64)
@example(values=[3, 3, 3, 3], dtype=np.int8)
@example(values=[5, -1, 4, -1, 0, 5], dtype=np.int64)
def test_sorted_unique_matches_numpy(values, dtype):
    x = np.array(values, dtype=dtype)
    got, want = sorted_unique(x), np.unique(x)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_sorted_unique_flattens_like_numpy():
    for x in (np.int64(3), np.array([[4, 1], [1, 0]], dtype=np.int32)):
        got, want = sorted_unique(x), np.unique(x)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@settings(max_examples=150)
@given(a=ints, b=ints)
def test_intersect_assume_unique_matches_numpy(a, b):
    a = np.unique(np.array(a, dtype=np.int64))
    b = np.unique(np.array(b, dtype=np.int64))
    got = np.intersect1d(a, b, assume_unique=True)
    want = np.intersect1d(a, b)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@settings(max_examples=150)
@given(n=st.integers(0, 50), x=ints)
@example(n=10, x=[2, 2, 9, 9, -3, 14])
def test_arange_complement_assume_unique_matches_numpy(n, x):
    full = np.arange(n, dtype=np.int64)
    x = np.array(x, dtype=np.int64)
    got = np.setdiff1d(full, x, assume_unique=True)
    want = np.setdiff1d(full, x)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


# -- tripwire ---------------------------------------------------------------

#: Positional parameter names, so ``np.unique(x, True)`` counts too.
_PARAMS = {
    "unique": ("ar", "return_index", "return_inverse", "return_counts"),
    "intersect1d": ("ar1", "ar2", "assume_unique"),
    "setdiff1d": ("ar1", "ar2", "assume_unique"),
    "setxor1d": ("ar1", "ar2", "assume_unique"),
    "union1d": (),
}
#: Keywords that move each function off numpy's hash-table path.
_SORT_PATH = {
    "unique": ("return_index", "return_inverse", "return_counts"),
    "intersect1d": ("assume_unique",),
    "setdiff1d": ("assume_unique",),
    "setxor1d": ("assume_unique",),
    "union1d": (),
}


def hash_path_calls(source: str):
    """``(line, name)`` for every numpy set-algebra use that can hash.

    A call passes only with a literal truthy sort-path argument; a bare
    reference (``reduce(np.intersect1d, ...)``) cannot be checked and is
    flagged.
    """
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    flagged = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Attribute)
            and node.attr in _PARAMS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            continue
        call = calls.get(id(node))
        if call is not None:
            bound = dict(zip(_PARAMS[node.attr], call.args))
            bound.update((kw.arg, kw.value) for kw in call.keywords if kw.arg)
            if any(
                isinstance(bound.get(name), ast.Constant) and bound[name].value
                for name in _SORT_PATH[node.attr]
            ):
                continue
        flagged.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(flagged)


def test_tripwire_recognises_hash_path_forms():
    source = "\n".join(
        [
            "np.unique(x)",
            "np.unique(x, return_counts=False)",
            "numpy.unique(x)",
            "np.intersect1d(a, b)",
            "np.intersect1d(a, b, assume_unique=False)",
            "np.setdiff1d(a, b)",
            "np.setxor1d(a, b)",
            "np.union1d(a, b)",
            "reduce(np.intersect1d, arrays)",
            # Sort-path forms below must not be flagged.
            "np.unique(x, return_index=True)",
            "np.unique(x, True)",
            "np.unique(x, return_counts=True)",
            "np.intersect1d(a, b, assume_unique=True)",
            "np.setdiff1d(a, b, True)",
            "np.setxor1d(a, b, assume_unique=True)",
        ]
    )
    assert [line for line, _ in hash_path_calls(source)] == list(range(1, 10))


def test_src_uses_no_hash_path_set_algebra():
    flagged = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in hash_path_calls(path.read_text())
    ]
    assert flagged == []
