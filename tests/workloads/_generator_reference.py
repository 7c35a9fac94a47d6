"""The per-row dataset helpers of e708c08, kept as the test oracle.

``repro.workloads`` builds its string columns and ``l_linenumber`` in
bulk: one ``tolist()`` and one join per row, one object-array index,
one ``np.diff`` of the order keys.  These are the loops they replaced,
copied unchanged, one Python step per row.  Each bulk helper must draw
the same random numbers in the same order and return the same values
with the same dtype (``tests/workloads/test_generator_differential.py``).
"""

from __future__ import annotations

import numpy as np

from repro.workloads.text import _WORDS


def random_sentences(
    rng: np.random.Generator,
    count: int,
    min_words: int = 6,
    max_words: int = 18,
) -> np.ndarray:
    """``count`` pseudo-prose strings of ``min_words..max_words`` words."""
    lengths = rng.integers(min_words, max_words + 1, size=count)
    total = int(lengths.sum())
    word_ids = rng.integers(0, len(_WORDS), size=total)
    out = np.empty(count, dtype=object)
    pos = 0
    for i in range(count):
        n = lengths[i]
        out[i] = " ".join(_WORDS[w] for w in word_ids[pos : pos + n])
        pos += n
    return out


def random_codes(rng: np.random.Generator, count: int, prefix: str, span: int) -> np.ndarray:
    """Identifier-like strings ``prefix-%09d`` drawn from ``span`` values."""
    ids = rng.integers(0, span, size=count)
    out = np.empty(count, dtype=object)
    for i, v in enumerate(ids):
        out[i] = f"{prefix}-{v:09d}"
    return out


def pick(rng: np.random.Generator, count: int, choices: list[str], p=None) -> np.ndarray:
    """Categorical string column drawn from ``choices``."""
    idx = rng.choice(len(choices), size=count, p=p)
    out = np.empty(count, dtype=object)
    for i, v in enumerate(idx):
        out[i] = choices[v]
    return out


def postcodes(rng: np.random.Generator, count: int) -> np.ndarray:
    """``ukpp._postcodes``."""
    letters = "ABCDEFGHJKLMNPRSTUWYZ"
    out = np.empty(count, dtype=object)
    a = rng.integers(0, len(letters), size=count)
    b = rng.integers(0, len(letters), size=count)
    n1 = rng.integers(1, 30, size=count)
    n2 = rng.integers(0, 10, size=count)
    c = rng.integers(0, len(letters), size=count)
    d = rng.integers(0, len(letters), size=count)
    for i in range(count):
        out[i] = f"{letters[a[i]]}{letters[b[i]]}{n1[i]} {n2[i]}{letters[c[i]]}{letters[d[i]]}"
    return out


_STREET_SUFFIX = ["ROAD", "STREET", "LANE", "AVENUE", "CLOSE", "DRIVE", "WAY"]


def streets(rng: np.random.Generator, count: int) -> np.ndarray:
    """``ukpp._streets``."""
    names = random_codes(rng, count, "ST", 40_000)
    suffix = pick(rng, count, _STREET_SUFFIX)
    out = np.empty(count, dtype=object)
    for i in range(count):
        out[i] = f"{names[i]} {suffix[i]}"
    return out


def links(rng: np.random.Generator, count: int) -> np.ndarray:
    """``recipe._links``."""
    ids = rng.integers(0, 10**9, size=count)
    out = np.empty(count, dtype=object)
    for i, v in enumerate(ids):
        out[i] = f"www.recipes.example/{v:09x}"
    return out


def linenumbers(orderkey: np.ndarray) -> np.ndarray:
    """``lineitem_table``'s ``l_linenumber``: 1, 2, ... within each run of
    equal order keys."""
    num_rows = len(orderkey)
    linenumber = np.zeros(num_rows, dtype=np.int64)
    run_start = 0
    for i in range(1, num_rows + 1):
        if i == num_rows or orderkey[i] != orderkey[run_start]:
            linenumber[run_start:i] = np.arange(1, i - run_start + 1)
            run_start = i
    return linenumber
