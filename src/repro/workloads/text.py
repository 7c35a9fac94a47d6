"""Synthetic text generation shared by dataset generators.

Comment/description columns drive the paper's large, poorly-compressible
column chunks (e.g. TPC-H ``l_comment``, recipeNLG ``directions``), so the
generated text must be diverse enough to resist dictionary encoding while
still looking like prose to the byte-level codec.
"""

from __future__ import annotations

import numpy as np

# A compact vocabulary in the spirit of TPC-H's text grammar.
_WORDS = np.array(
    (
        "furiously quickly slyly carefully blithely silent final ironic regular "
        "express bold pending unusual special even quiet brave daring fluffy "
        "accounts deposits requests instructions theodolites packages pinto "
        "beans foxes ideas dependencies platelets sheaves asymptotes courts "
        "dolphins multipliers sauternes warthogs sentiments excuses realms "
        "sleep wake cajole nag haggle boost detect integrate engage dazzle "
        "about above across after against along among around never always"
    ).split(),
    dtype=object,
)


def random_sentences(
    rng: np.random.Generator,
    count: int,
    min_words: int = 6,
    max_words: int = 18,
) -> np.ndarray:
    """``count`` pseudo-prose strings of ``min_words..max_words`` words."""
    lengths = rng.integers(min_words, max_words + 1, size=count)
    words = _WORDS[rng.integers(0, len(_WORDS), size=int(lengths.sum()))].tolist()
    ends = np.cumsum(lengths).tolist()
    return np.array(
        [" ".join(words[start:end]) for start, end in zip([0, *ends], ends)], dtype=object
    )


def random_codes(rng: np.random.Generator, count: int, prefix: str, span: int) -> np.ndarray:
    """Identifier-like strings ``prefix-%09d`` drawn from ``span`` values."""
    ids = rng.integers(0, span, size=count).tolist()
    return np.array([f"{prefix}-{v:09d}" for v in ids], dtype=object)


def pick(rng: np.random.Generator, count: int, choices: list[str], p=None) -> np.ndarray:
    """Categorical string column drawn from ``choices``."""
    return np.array(choices, dtype=object)[rng.choice(len(choices), size=count, p=p)]
