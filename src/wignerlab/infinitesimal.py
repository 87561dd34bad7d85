"""Exact pairing calculus for mixed Gaussian/deterministic matrix words.

A word x^1 a^1 ... x^n a^n alternates centred complex-Gaussian letters
(colored by which independent matrix each is) with deterministic separators.
Its expected normalized trace expands over color-respecting pair partitions;
each pairing contributes through the cycles of pi*gamma, gamma the cyclic
shift. Restricting the sum to non-crossing pairings gives the free-product
moment, and the difference decays like 1/N^2 (the genus term
n/2 + 1 - |pi gamma| is even, positive exactly for crossing pairings).

Enumeration is exhaustive and exact; n is capped (default 16) since the
point is correctness at desk scale, not asymptotic speed. A pairing is its
partner tuple: ``p[t]`` is the letter that t is paired with. Each word
enumerates its pairings once, depth first in blocks of at most
``BLOCK_ROWS`` int8 rows, walks the cycles of each block's rows together
and counts its pairings into classes by the separators along each cycle
(``PairedWord.cycle_classes``): all 10,395 pairings of w1^12 fall into 4,
and no per-pairing array outlives its block, so the 2,027,025 pairings of
w1^16 take a few MB. At every dimension each class's product is then
formed once, and each sum adds count * product over the classes.

The Monte Carlo cross-check draws each sample's GUE matrices once for all
words, each from one call for all its normals and assembled by
``ensemble.hermitian`` as ``ensemble.sample`` assembles its matrices, and
traces each word as Tr(L R) of the products L, R of its two halves. The
distinct prefixes of all halves are listed once, in the order each is
formed from the one before, and every sample forms that list, so halves
share the products of common prefixes; a diagonal separator scales columns
instead of multiplying, and each word still gets bitwise the value it
would get if checked alone. Its samples run on the index-ordered map of
``parallel``, serially or on workers forked directly, each on a strided
share of the sample indices.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Mapping, Sequence

import numpy as np

from .ensemble import hermitian, rng_for, strict_upper
from .errors import ParameterError
from .parallel import map_samples, mean_and_se

__all__ = [
    "PairedWord",
    "MomentResult",
    "InfinitesimalReport",
    "CrossCheckResult",
    "parse_word",
    "enumerate_pairings",
    "xi_exact",
    "free_moment",
    "infinitesimal_check",
    "monte_carlo_cross_check",
    "monte_carlo_cross_checks",
    "diag_pm1",
    "sample_gue",
]

MAX_LETTERS = 16


@dataclass(frozen=True)
class PairedWord:
    """Colored word: Gaussian letter colors plus separator words.

    ``separators[t]`` is the tuple of generator names multiplied together
    after letter t; the empty tuple is the identity. ``cycle_classes``
    enumerates the word's pairings once and sorts them into the classes
    that the Wick sums evaluate.
    """

    colors: tuple[int, ...]
    separators: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        n = len(self.colors)
        if n < 1:
            raise ParameterError("a word needs at least one Gaussian letter")
        if n > MAX_LETTERS:
            raise ParameterError(f"words longer than {MAX_LETTERS} letters are not supported")
        if len(self.separators) != n:
            raise ParameterError("colors and separators must have equal length")

    @property
    def n(self) -> int:
        return len(self.colors)

    @cached_property
    def cycle_classes(self) -> tuple[tuple, tuple[int, ...]]:
        """(classes, number of pairings in each class), computed once per word.

        Walks the cycles of pi*gamma, gamma: t -> t+1 mod n, of the
        color-respecting pairings block by block (``_pairing_blocks``,
        ``_cycle_streams``), each cycle from its smallest t. A cycle's key is
        the tuple of the non-empty separators along it, and a class is (the
        keys of a pairing's cycles in cycle order, non-crossing); ``classes``
        lists the distinct ones in order of first appearance in
        ``enumerate_pairings`` order, and the second tuple counts the
        pairings of each. Pairings of one class contribute equal products to
        both sums, and no per-pairing array outlives its block.
        """
        n, seps = self.n, self.separators
        codes: dict[tuple[str, ...], int] = {}
        for sep in seps:
            if sep:
                codes.setdefault(sep, len(codes) + 2)
        sep_codes = np.array([codes.get(sep, 0) for sep in seps], dtype=np.uint8)
        names = {code: sep for sep, code in codes.items()}
        # a pairing's stream determines its class, and the class the stream
        index: dict[bytes, int] = {}
        classes: list[tuple] = []
        counts: list[int] = []
        for block in _pairing_blocks(n, self.colors):
            streams = _cycle_streams(block, sep_codes)
            distinct, first, count = np.unique(streams.view(f"S{streams.shape[1]}").ravel(),
                                               return_index=True, return_counts=True)
            for k in np.argsort(first).tolist():
                known = index.get(distinct[k])
                if known is not None:
                    counts[known] += int(count[k])
                    continue
                keys: list[list] = []
                for code in streams[first[k]].tolist():
                    if code == 1:
                        keys.append([])
                    elif code:
                        keys[-1].append(names[code])
                index[distinct[k]] = len(classes)
                classes.append((tuple(map(tuple, keys)), n // 2 + 1 == len(keys)))
                counts.append(int(count[k]))
        return tuple(classes), tuple(counts)


def parse_word(text: str) -> PairedWord:
    """Parse the mini-grammar ``w1 a w1 a``: wK tokens are Gaussian letters
    of color K, every other token is a generator name; consecutive generator
    tokens multiply into one separator."""
    tokens = text.split()
    if not tokens:
        raise ParameterError("empty word")
    colors: list[int] = []
    separators: list[tuple[str, ...]] = []
    current: list[str] = []
    if not _is_letter(tokens[0]):
        raise ParameterError("word must start with a Gaussian letter (wK)")
    for tok in tokens:
        if _is_letter(tok):
            if colors:
                separators.append(tuple(current))
                current = []
            colors.append(int(tok[1:]))
        else:
            current.append(tok)
    separators.append(tuple(current))
    return PairedWord(colors=tuple(colors), separators=tuple(separators))


def _is_letter(tok: str) -> bool:
    return len(tok) > 1 and tok[0] == "w" and tok[1:].isdigit()


def enumerate_pairings(n: int, colors: Sequence[int] | None = None) -> list[tuple[int, ...]]:
    """All fixed-point-free involutions of {0..n-1} pairing only equal
    colors, as partner tuples, in lexicographic order.

    Empty for odd n or color multisets with an odd count of some color.
    """
    if colors is None:
        colors = [0] * n
    if len(colors) != n:
        raise ParameterError("colors must have length n")
    return [tuple(p) for block in _pairing_blocks(n, colors) for p in block.tolist()]


BLOCK_ROWS = 2**14  # most pairings in one block of ``_pairing_blocks``


def _pairing_blocks(n: int, colors: Sequence[int]):
    """``enumerate_pairings`` as arrays of at most ``BLOCK_ROWS`` rows, a row
    of partners per pairing (int8 up to 128 letters), depth first in
    lexicographic order.

    A run of partial pairings (all with the same number of pairs) whose
    completions fit in one block is completed at once; a partial pairing
    with more completions is extended by one pair and its children are
    split in the same way. Completions are counted with Python ints, as
    (n - 1)!! outgrows int64 from n = 36 on.
    """
    if n % 2:
        return
    colors = np.asarray(colors)
    # (f - 1)!! completions of f free letters of one color, none for odd f
    pairings_of = [math.prod(range(f - 1, 0, -2)) if f % 2 == 0 else 0 for f in range(n + 1)]

    def blocks(rows: np.ndarray):
        free = rows < 0
        sizes = [1] * len(rows)
        for color in set(colors.tolist()):  # np.unique here would import numpy.ma
            of_color = np.count_nonzero(free & (colors == color), axis=1).tolist()
            sizes = [size * pairings_of[f] for size, f in zip(sizes, of_color)]
        rounds = np.count_nonzero(free[0]) // 2
        start, total = 0, 0
        for i, size in enumerate(sizes):
            if total + size > BLOCK_ROWS:
                if total:
                    yield _extend(rows[start:i], colors, rounds)
                start, total = i, 0
            if size > BLOCK_ROWS:
                yield from blocks(_extend(rows[i:i + 1], colors, 1))
                start = i + 1
            else:
                total += size
        if total:
            yield _extend(rows[start:], colors, rounds)

    yield from blocks(np.full((1, n), -1, dtype=np.int8 if n <= 128 else np.intp))


def _extend(rows: np.ndarray, colors: np.ndarray, rounds: int) -> np.ndarray:
    """Pairs the smallest unpaired letter of every row with each later
    unpaired letter of its color in turn, ``rounds`` times; rows keep the
    order of their parents, so lexicographic order is kept."""
    letters = np.arange(rows.shape[1])
    for _ in range(rounds):
        free = rows < 0
        t = np.argmax(free, axis=1)
        parent, s = np.nonzero(free & (letters > t[:, None]) & (colors == colors[t][:, None]))
        rows, t = rows[parent], t[parent]
        k = np.arange(parent.size)
        rows[k, t] = s
        rows[k, s] = t
    return rows


def _cycle_streams(pairings: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Walk of the cycles of pi*gamma of every pairing (a row of partners), as
    a uint8 row per pairing: 1 where a cycle starts, then the code of each
    letter's separator along it (0 for an empty one is skipped), then zeros.

    All rows step together, n steps: from t to pi(t + 1), or, where that
    closes the cycle, to the smallest letter not yet visited.
    """
    m, n = pairings.shape
    width = 2 * n  # at most n/2 + 1 cycle starts and n separators
    after = pairings[:, (np.arange(n) + 1) % n].ravel()
    seen = np.zeros((m, n), dtype=bool)
    flat_seen = seen.ravel()
    streams = np.zeros(m * width, dtype=np.uint8)
    base = np.arange(m) * n
    cursor = np.arange(m) * width  # where each row writes its next code
    t = base.copy()
    starts = np.arange(m)
    for step in range(n):
        if step:
            t = base + after[t]
            starts = np.flatnonzero(flat_seen[t])
            t[starts] = base[starts] + np.argmin(seen[starts], axis=1)
        streams[cursor[starts]] = 1
        cursor[starts] += 1
        code = codes[t - base]
        named = np.flatnonzero(code)
        streams[cursor[named]] = code[named]
        cursor[named] += 1
        flat_seen[t] = True
    return streams.reshape(m, width)


def _separator_matrices(word: PairedWord, generators: Mapping[str, np.ndarray], n_dim: int):
    """Product of the generator matrices of each distinct non-empty
    separator of the word, keyed by its tuple of names."""
    mats = {}
    for name in {g for sep in word.separators for g in sep}:
        if name not in generators:
            raise ParameterError(f"generator {name!r} not supplied")
        m = np.asarray(generators[name])
        if m.shape != (n_dim, n_dim):
            raise ParameterError(
                f"generator {name!r} has shape {m.shape}, expected {(n_dim, n_dim)}"
            )
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise ParameterError(f"generator {name!r} is not Hermitian")
        mats[name] = m
    return {sep: reduce(operator.matmul, [mats[name] for name in sep])
            for sep in dict.fromkeys(word.separators) if sep}


def _cycle_product_trace(key, separators, n_dim: int) -> complex:
    """Trace of the product, in cycle order, of the separators a cycle key names."""
    if not key:
        return complex(n_dim)
    return complex(np.trace(reduce(operator.matmul, [separators[names] for names in key])))


def xi_exact(
    word: PairedWord,
    n_dim: int,
    sigma_n2: float,
    generators: Mapping[str, np.ndarray] | None = None,
) -> complex:
    """Expected normalized trace of the word, by exact Wick enumeration.

    E[(1/N) Tr(X^1 A^1 ... X^n A^n)] = (1/N) sigma_N^n *
    sum over color-respecting pairings of the product over cycles of
    pi*gamma of the trace of the ordered separator product.
    """
    separators = _separator_matrices(word, generators or {}, n_dim)
    total = _sum_over_pairings(
        word, lambda key: _cycle_product_trace(key, separators, n_dim), noncrossing_only=False
    )
    return sigma_n2 ** (word.n / 2) / n_dim * total


def _sum_over_pairings(word: PairedWord, cycle_value, noncrossing_only: bool) -> complex:
    """Sum over the word's pairings of the product of ``cycle_value`` over
    the cycles of pi*gamma.

    Each cycle key is evaluated once and each class's product is formed
    once, in cycle order; the sum is that of count * product over the
    classes in their order, with plain ``*`` and ``+``.
    """
    values: dict[tuple, complex] = {}
    total = 0.0 + 0.0j
    for (keys, noncrossing), count in zip(*word.cycle_classes):
        if noncrossing_only and not noncrossing:
            continue
        contrib = 1.0 + 0.0j
        for key in keys:
            value = values.get(key)
            if value is None:
                value = values[key] = cycle_value(key)
            contrib *= value
        total += count * contrib
    return total


def free_moment(
    word: PairedWord,
    v: float,
    generators: Mapping[str, np.ndarray] | None = None,
    n_dim: int | None = None,
    trace_functional: Callable[[tuple[str, ...]], complex] | None = None,
) -> complex:
    """Moment of the word under the free product of semicircles and the
    separator distribution.

    Sums v^(n/2) * phi_K(pi)(a^1, ..., a^n) over non-crossing color-respecting
    pairings, where for non-crossing pairings the Kreweras-complement blocks
    are exactly the cycles of pi*gamma, so one cycle routine serves both this
    and ``xi_exact``. The separator moments phi come either from concrete
    matrices via normalized traces or from an abstract trace functional on
    generator words (limit mode).
    """
    if trace_functional is None:
        if n_dim is None:
            raise ParameterError("concrete mode needs the matrix dimension n_dim")
        separators = _separator_matrices(word, generators or {}, n_dim)

        def phi_cycle(key) -> complex:
            return _cycle_product_trace(key, separators, n_dim) / n_dim

    else:

        def phi_cycle(key) -> complex:
            return complex(trace_functional(tuple(name for names in key for name in names)))

    return v ** (word.n / 2) * _sum_over_pairings(word, phi_cycle, noncrossing_only=True)


@dataclass(frozen=True)
class MomentResult:
    """Exact vs free-product moment of one word at one dimension."""

    n_dim: int
    xi: complex
    free: complex
    correction: complex


@dataclass(frozen=True)
class InfinitesimalReport:
    results: tuple[MomentResult, ...]
    slope: float | None
    exact: bool

    @property
    def ok(self) -> bool:
        return self.exact or (self.slope is not None and self.slope <= -1.9)


def infinitesimal_check(
    word: PairedWord,
    dims: Sequence[int],
    v: float = 1.0,
    generator_factory: Callable[[int], Mapping[str, np.ndarray]] | None = None,
) -> InfinitesimalReport:
    """Fit the decay rate of xi - free-product moment across dimensions.

    The semicircular variance v = N sigma_N^2 is held fixed, so the leading
    correction must scale like N^-2 (fitted slope <= -1.9, or corrections
    identically zero). The fit needs at least 3 distinct dimensions.
    """
    dims = list(dims)
    if len(set(dims)) < 3:
        raise ParameterError(f"need at least 3 distinct dimensions to fit a slope, not {dims}")
    results = []
    for n_dim in dims:
        gens = generator_factory(n_dim) if generator_factory is not None else {}
        xi = xi_exact(word, n_dim, v / n_dim, gens)
        free = free_moment(word, v, gens, n_dim)
        results.append(MomentResult(n_dim=n_dim, xi=xi, free=free, correction=xi - free))
    scale = max(max(abs(r.xi) for r in results), 1.0)
    nonzero = [r for r in results if abs(r.correction) > 1e-13 * scale]
    if not nonzero:
        return InfinitesimalReport(results=tuple(results), slope=None, exact=True)
    if len(nonzero) < 3:
        return InfinitesimalReport(results=tuple(results), slope=None, exact=False)
    xs = np.log([r.n_dim for r in nonzero])
    ys = np.log([abs(r.correction) for r in nonzero])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return InfinitesimalReport(results=tuple(results), slope=slope, exact=False)


def sample_gue(n_dim: int, sigma_n2: float, rng: np.random.Generator) -> np.ndarray:
    """GUE matrix: complex Gaussian off-diagonal, real Gaussian diagonal,
    every entry with E|X_ij|^2 = sigma_n2.

    Draws its 2n^2 + n normals in one call: the real parts and the imaginary
    parts (each n x n in row-major order, of which the strict upper triangle
    is used) and then the diagonal. Only the strict upper triangle enters
    the arithmetic.
    """
    scale = math.sqrt(sigma_n2)
    size = n_dim * n_dim
    normals = rng.standard_normal(2 * size + n_dim)
    upper = strict_upper(n_dim)
    re = normals[:size].reshape(n_dim, n_dim)[upper]
    im = normals[size:2 * size].reshape(n_dim, n_dim)[upper]
    return hermitian(scale * (re + 1j * im) / math.sqrt(2.0), scale * normals[2 * size:])


@dataclass(frozen=True)
class CrossCheckResult:
    exact: complex
    mc_mean: complex
    mc_se: float
    n_samples: int

    @property
    def ok(self) -> bool:
        return abs(self.mc_mean - self.exact) <= 4.0 * self.mc_se


def monte_carlo_cross_check(
    word: PairedWord,
    n_dim: int,
    n_samples: int,
    sigma_n2: float,
    generators: Mapping[str, np.ndarray] | None = None,
    seed: int = 0,
) -> CrossCheckResult:
    """Sample mean of (1/N) Tr(word) over independent GUE draws vs xi_exact;
    ``monte_carlo_cross_checks`` for a single word."""
    return monte_carlo_cross_checks([word], n_dim, n_samples, sigma_n2, generators, seed)[0]


def monte_carlo_cross_checks(
    words: Sequence[PairedWord],
    n_dim: int,
    n_samples: int,
    sigma_n2: float,
    generators: Mapping[str, np.ndarray] | None = None,
    seed: int = 0,
    threads: int = 1,
) -> list[CrossCheckResult]:
    """Sample means of (1/N) Tr(word) over independent GUE draws vs xi_exact,
    one result per word.

    Sample m draws its GUE matrices from ``ensemble.rng_for(seed, m)``; a
    word takes the i-th draw for its i-th color in sorted order, so its
    result does not depend on the other words. A word's factors (draws and
    separator products) split at ceil(k/2) into two halves, each folded
    left to right into L and R, and its trace is ``sum(L * R.T)``, which is
    Tr(L R) in O(N^2); a one-factor word is ``trace(L)``. Before sampling,
    the distinct prefixes of all halves (same draw slots, same separators)
    are listed once in dependency order, each a leaf (a draw or a separator
    product), a column scaling of an earlier prefix by a separator that is
    a diagonal matrix (``prod * d``, which gives the bits of ``prod @ D``)
    or a matmul of an earlier prefix by its last factor; every sample forms
    that list and traces each word from it, so each word gets bitwise the
    value of its own fold. The means and SEs can differ in their last
    digits from a fold of the whole word, as the sum is taken in another
    order. One sample gives one row, its traces of every word, and the rows
    run on ``parallel.map_samples`` with ``threads`` as in
    ``montecarlo.run``, on workers forked directly, each on a strided share
    of the sample indices: the results are bitwise the same for every
    worker count.
    """
    if n_samples < 1000:
        raise ParameterError("cross-check needs at least 1000 samples")
    gens = generators or {}
    separators: dict[tuple[str, ...], np.ndarray] = {}
    diagonals: dict[tuple[str, ...], np.ndarray] = {}  # of the separators that are diagonal
    for word in words:
        for names, mat in _separator_matrices(word, gens, n_dim).items():
            separators[names] = mat
            d = np.diagonal(mat)
            if np.array_equal(mat, np.diag(d)):
                diagonals[names] = d.copy()
    # every distinct half prefix, by its factors (a draw slot or separator
    # names), as (index of the prefix one shorter or None, its last factor)
    index: dict[tuple, int] = {}
    steps: list[tuple] = []

    def prefix(half: tuple) -> int | None:
        if not half:
            return None
        known = index.get(half)
        if known is None:
            parent = prefix(half[:-1])
            known = index[half] = len(steps)
            steps.append((parent, half[-1]))
        return known

    traced = []  # per word: the list indices of its halves' products
    for word in words:
        slot = {c: i for i, c in enumerate(sorted(set(word.colors)))}
        factors: list = []
        for color, names in zip(word.colors, word.separators):
            factors.append(slot[color])
            if names:
                factors.append(names)
        mid = (len(factors) + 1) // 2
        traced.append((prefix(tuple(factors[:mid])), prefix(tuple(factors[mid:]))))
    exacts = [xi_exact(word, n_dim, sigma_n2, gens) for word in words]
    n_draws = max((len(set(word.colors)) for word in words), default=0)

    def per_sample(m: int) -> np.ndarray:
        rng = rng_for(seed, m)
        draws = [sample_gue(n_dim, sigma_n2, rng) for _ in range(n_draws)]
        products: list[np.ndarray] = []
        for parent, factor in steps:
            mat = draws[factor] if isinstance(factor, int) else separators[factor]
            if parent is None:
                products.append(mat)
            elif factor in diagonals:
                products.append(products[parent] * diagonals[factor])
            else:
                products.append(products[parent] @ mat)
        row = np.empty(len(traced), dtype=complex)
        for j, (left, right) in enumerate(traced):
            if right is None:
                row[j] = np.trace(products[left]) / n_dim
            else:
                row[j] = np.sum(products[left] * products[right].T) / n_dim
        return row

    rows = map_samples(per_sample, n_samples, threads)
    results = []
    for exact, vals in zip(exacts, np.ascontiguousarray(rows.T)):
        mean, se = mean_and_se(vals)
        results.append(CrossCheckResult(exact=exact, mc_mean=mean, mc_se=se, n_samples=n_samples))
    return results


def diag_pm1(n_dim: int) -> np.ndarray:
    """diag(+1, -1, +1, ...) with balanced signs for even dimensions."""
    signs = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n_dim)])
    return np.diag(signs)
