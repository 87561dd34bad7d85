import itertools
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wignerlab.infinitesimal as infinitesimal
from wignerlab.errors import ParameterError
from wignerlab.parallel import mean_and_se
from wignerlab.infinitesimal import (
    MAX_LETTERS,
    PairedWord,
    diag_pm1,
    enumerate_pairings,
    free_moment,
    infinitesimal_check,
    CrossCheckResult,
    monte_carlo_cross_check,
    monte_carlo_cross_checks,
    parse_word,
    sample_gue,
    xi_exact,
)


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def arcs(partner):
    return [(t, s) for t, s in enumerate(partner) if t < s]


def crossing(partner):
    """Arc-wise reference: two arcs interleave (arcs come in order of their
    left ends, so s < t)."""
    return any(t < s2 < t2 for (s, s2), (t, t2) in itertools.combinations(arcs(partner), 2))


def cycles(partner):
    """Cycles of the permutation pi*gamma, gamma: t -> t+1 mod n, each as
    the tuple of the t along it from its smallest one."""
    n = len(partner)
    seen = set()
    out = []
    for start in range(n):
        cycle = []
        t = start
        while t not in seen:
            seen.add(t)
            cycle.append(t)
            t = partner[(t + 1) % n]
        if cycle:
            out.append(tuple(cycle))
    return out


def genus(partner):
    """n/2 + 1 - |pi gamma|."""
    return len(partner) // 2 + 1 - len(cycles(partner))


def harer_zagier(n_dim, k_max):
    """b_k = E Tr H^2k of GUE with E|H_ij|^2 = 1, for k = 0..k_max, by the
    Harer-Zagier recursion (Invent. Math. 85, 1986):
    (k+2) b_{k+1} = (4k+2) N b_k + k(4k^2-1) b_{k-1}, b_0 = N, b_1 = N^2."""
    b = [n_dim, n_dim**2]
    for k in range(1, k_max):
        num = (4 * k + 2) * n_dim * b[k] + k * (4 * k * k - 1) * b[k - 1]
        assert num % (k + 2) == 0
        b.append(num // (k + 2))
    return b[: k_max + 1]


def wick_bruteforce(word, n_dim, sigma_n2, generators):
    """Independent oracle: expand E[(1/N) Tr(X^1 A^1 ... X^n A^n)] by summing
    the Wick weight over all index tuples, without the cycle shortcut.

    Index convention: X^t carries (i_{2t-1}, i_{2t}), A^t carries
    (i_{2t}, i_{2t+1}) cyclically; a pairing {s,t} forces e_s = e_t reversed
    and contributes sigma_N^2 per pair.
    """
    n = word.n
    mats = []
    for sep in word.separators:
        m = np.eye(n_dim, dtype=complex)
        for name in sep:
            m = m @ generators[name]
        mats.append(m)
    total = 0.0 + 0.0j
    pairings = enumerate_pairings(n, word.colors)
    for idx in itertools.product(range(n_dim), repeat=2 * n):
        # a-factor for this tuple
        a_factor = 1.0 + 0.0j
        for t in range(n):
            row = idx[(2 * t + 1) % (2 * n)]
            col = idx[(2 * t + 2) % (2 * n)]
            a_factor *= mats[t][row, col]
        if a_factor == 0.0:
            continue
        weight = 0.0
        for pairing in pairings:
            match = True
            for s, t in arcs(pairing):
                e_s = (idx[2 * s], idx[2 * s + 1])
                e_t = (idx[2 * t], idx[2 * t + 1])
                if e_s != (e_t[1], e_t[0]):
                    match = False
                    break
            if match:
                weight += sigma_n2 ** (n / 2)
        total += weight * a_factor
    return total / n_dim


class TestPairingEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 1), (4, 3), (6, 15), (8, 105)])
    def test_single_color_counts(self, n, count):
        assert len(enumerate_pairings(n)) == count
        assert count == double_factorial(n - 1)

    def test_odd_n_empty(self):
        assert enumerate_pairings(3) == []
        assert enumerate_pairings(1) == []

    def test_color_constraint(self):
        assert enumerate_pairings(4, (1, 2, 1, 2)) == [(2, 3, 0, 1)]

    def test_unpairable_colors_empty(self):
        assert enumerate_pairings(4, (1, 1, 1, 2)) == []

    def test_long_words_with_one_pairing(self):
        # 35!! completions of 36 letters outgrow int64, and partners past 127
        # outgrow int8; the colours leave one pairing either way
        assert enumerate_pairings(36, [c for c in range(18) for _ in (0, 1)]) == [
            tuple(t ^ 1 for t in range(36))]
        assert enumerate_pairings(130, list(range(65)) * 2) == [
            tuple((t + 65) % 130 for t in range(130))]

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_noncrossing_counts_are_catalan(self, n):
        pairings = enumerate_pairings(n)
        assert len(pairings) == double_factorial(n - 1)
        word = PairedWord(colors=(1,) * n, separators=((),) * n)
        classes, counts = word.cycle_classes
        assert sum(counts) == len(pairings)
        # without separators a class is its number of cycles, and its flag is
        # that of every pairing in it
        flag = {len(keys): noncrossing for keys, noncrossing in classes}
        assert len(flag) == len(classes)
        assert [flag[len(cycles(p))] for p in pairings] == [not crossing(p) for p in pairings]
        assert Counter(len(cycles(p)) for p in pairings) == {
            len(keys): count for (keys, _), count in zip(classes, counts)}
        assert sum(count for (_, noncrossing), count in zip(classes, counts)
                   if noncrossing) == catalan(n // 2)

    @settings(max_examples=200, deadline=None)
    @given(colors=st.lists(st.integers(min_value=1, max_value=3), max_size=10))
    def test_pairings_are_colour_respecting_involutions(self, colors):
        pairings = enumerate_pairings(len(colors), colors)
        for p in pairings:
            assert len(p) == len(colors)
            assert all(p[t] != t and p[p[t]] == t and colors[p[t]] == colors[t]
                       for t in range(len(p)))
        assert len(set(pairings)) == len(pairings)
        counts = [colors.count(c) for c in set(colors)]
        expected = 0 if any(c % 2 for c in counts) else math.prod(
            double_factorial(c - 1) for c in counts)
        assert len(pairings) == expected


def reference_enumerate_pairings(n, colors):
    """The recursive enumeration that ``enumerate_pairings`` replaced."""
    out = []
    partner = [-1] * n

    def recurse():
        try:
            t = partner.index(-1)
        except ValueError:
            out.append(tuple(partner))
            return
        for s in range(t + 1, n):
            if partner[s] == -1 and colors[s] == colors[t]:
                partner[t], partner[s] = s, t
                recurse()
                partner[t] = partner[s] = -1

    if n % 2 == 0:
        recurse()
    return out


def reference_class(partner, seps):
    """A pairing's class by a walk of its own cycles: the keys (separators
    along each cycle, from its smallest t) and whether it is non-crossing."""
    n = len(partner)
    seen = [False] * n
    keys = []
    for start in range(n):
        if seen[start]:
            continue
        key = []
        t = start
        while not seen[t]:
            seen[t] = True
            if seps[t]:
                key.append(seps[t])
            t = partner[(t + 1) % n]
        keys.append(tuple(key))
    return tuple(keys), n // 2 + 1 == len(keys)


def reference_cycle_classes(word):
    """The classes of the per-pairing walk in order of first appearance, and
    how many pairings each has, counted pairing by pairing."""
    counts = Counter(reference_class(partner, word.separators)
                     for partner in reference_enumerate_pairings(word.n, word.colors))
    return tuple(counts), tuple(counts.values())


@st.composite
def _coloured_words(draw):
    """Up to 12 letters of up to three colors, odd counts included, with
    separators from two generators or with none."""
    colors = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=12))
    pool = draw(st.sampled_from([[()], [(), ("a",), ("b",), ("a", "b"), ("b", "a")]]))
    seps = draw(st.lists(st.sampled_from(pool), min_size=len(colors), max_size=len(colors)))
    return PairedWord(colors=tuple(colors), separators=tuple(seps))


@settings(max_examples=150, deadline=None)
@example(word=PairedWord(colors=(1,) * 12, separators=((),) * 12))
@example(word=parse_word("w1 a w2 b w1 a w2 b w1 a b w2 b a w1 w2 w1 a w2 w1 b w2"))
@given(word=_coloured_words())
def test_cycle_classes_match_the_per_pairing_walk(word):
    pairings = reference_enumerate_pairings(word.n, word.colors)
    reference = reference_cycle_classes(word)
    assert enumerate_pairings(word.n, word.colors) == pairings
    assert word.cycle_classes == reference
    # blocks of at most five pairings split the longer words, and the
    # classes and counts merged across the blocks are the same
    with mock.patch.object(infinitesimal, "BLOCK_ROWS", 5):
        assert enumerate_pairings(word.n, word.colors) == pairings
        assert PairedWord(word.colors, word.separators).cycle_classes == reference
        assert all(len(block) <= 5 for block in infinitesimal._pairing_blocks(word.n, word.colors))


def test_classes_of_w1_14_in_bounded_memory():
    # the 135,135 pairings are classified block by block; holding every
    # pairing's row, stream and class index at once takes about 44 MB
    word = PairedWord(colors=(1,) * 14, separators=((),) * 14)
    tracemalloc.start()
    try:
        classes, counts = word.cycle_classes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert sum(counts) == double_factorial(13) == 135135
    assert sum(count for (_, noncrossing), count in zip(classes, counts)
               if noncrossing) == catalan(7) == 429


class TestCycles:
    def test_n2_identity(self):
        assert len(cycles((1, 0))) == 2

    def test_n4_noncrossing_adjacent(self):
        p = (1, 0, 3, 2)  # {(0,1),(2,3)}
        assert len(cycles(p)) == 3
        assert genus(p) == 0

    def test_n4_crossing(self):
        p = (2, 3, 0, 1)  # {(0,2),(1,3)}
        assert len(cycles(p)) == 1
        assert genus(p) == 2

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_genus_parity(self, n):
        for p in enumerate_pairings(n):
            g = genus(p)
            assert g >= 0 and g % 2 == 0
            assert (g == 0) == (not crossing(p))


class TestXiExact:
    def test_w2(self):
        word = parse_word("w1 w1")
        n_dim, v = 10, 1.3
        assert xi_exact(word, n_dim, v / n_dim) == pytest.approx(v)

    def test_w4(self):
        word = parse_word("w1 w1 w1 w1")
        for n_dim in (4, 10, 25):
            v = 0.7
            expected = v**2 * (2.0 + 1.0 / n_dim**2)
            assert xi_exact(word, n_dim, v / n_dim) == pytest.approx(expected, rel=1e-13)

    def test_wawa_single_pairing(self):
        # single pairing, pi*gamma = identity: (1/N) sigma_N^2 (Tr A)^2
        n_dim = 6
        a = np.diag(np.arange(1.0, 7.0))
        word = parse_word("w1 a w1 a")
        sigma_n2 = 0.25
        expected = sigma_n2 * np.trace(a) ** 2 / n_dim
        assert xi_exact(word, n_dim, sigma_n2, {"a": a}) == pytest.approx(expected)

    def test_two_colors_only_crossing_survives(self):
        word = parse_word("w1 w2 w1 w2")
        n_dim, v = 8, 1.0
        assert xi_exact(word, n_dim, v / n_dim) == pytest.approx(v**2 / n_dim**2)

    @pytest.mark.parametrize(
        "text,n_dim",
        [
            ("w1 w1", 3),
            ("w1 w1 w1 w1", 2),
            ("w1 a w1 a", 3),
            ("w1 w2 w1 w2", 2),
            ("w1 a w1 w1 w1", 2),
            ("w1 a w2 a w1 w2", 2),
        ],
    )
    def test_against_bruteforce_wick_oracle(self, text, n_dim):
        word = parse_word(text)
        rng = np.random.default_rng(42)
        a = rng.standard_normal((n_dim, n_dim))
        a = 0.5 * (a + a.T)
        gens = {"a": a}
        sigma_n2 = 0.37
        direct = wick_bruteforce(word, n_dim, sigma_n2, gens)
        fast = xi_exact(word, n_dim, sigma_n2, gens)
        assert fast == pytest.approx(direct, rel=1e-12, abs=1e-14)

    def test_gue_moment_table(self):
        # normalized moments of W^2m approach Catalan numbers at v = 1
        word4 = parse_word("w1 w1 w1 w1")
        word6 = parse_word("w1 w1 w1 w1 w1 w1")
        for n_dim in (30, 100):
            assert xi_exact(word4, n_dim, 1.0 / n_dim) == pytest.approx(
                catalan(2), abs=2.0 / n_dim**2
            )
            assert xi_exact(word6, n_dim, 1.0 / n_dim) == pytest.approx(
                catalan(3), abs=11.0 / n_dim**2
            )

    @pytest.mark.parametrize("n_dim", range(1, 9))
    def test_one_colour_words_against_harer_zagier(self, n_dim):
        b = harer_zagier(n_dim, 5)
        assert b[2] == 2 * n_dim**3 + n_dim
        for k in range(1, 6):
            word = parse_word(" ".join(["w1"] * (2 * k)))
            assert xi_exact(word, n_dim, 1.0) == pytest.approx(b[k] / n_dim, rel=1e-12)

    def test_rotation_invariance_for_cyclic_words(self):
        # relabeling t -> t+1 preserves the moment when the word is cyclically
        # symmetric (all separators equal, single color)
        n_dim = 6
        a = diag_pm1(n_dim)
        base = PairedWord(colors=(1, 1, 1, 1), separators=(("a",),) * 4)
        rotated = PairedWord(colors=(1, 1, 1, 1), separators=(("a",),) * 4)
        assert xi_exact(base, n_dim, 0.2, {"a": a}) == pytest.approx(
            xi_exact(rotated, n_dim, 0.2, {"a": a})
        )


class TestFreeMoment:
    def test_w2(self):
        assert free_moment(parse_word("w1 w1"), 1.3, {}, 5) == pytest.approx(1.3)

    def test_w4(self):
        assert free_moment(parse_word("w1 w1 w1 w1"), 0.7, {}, 5) == pytest.approx(
            2 * 0.7**2
        )

    def test_wawa_kreweras_blocks(self):
        # K(pi) blocks {1},{2}: phi(a)^2
        n_dim = 6
        a = np.diag(np.arange(1.0, 7.0))
        phi_a = np.trace(a) / n_dim
        value = free_moment(parse_word("w1 a w1 a"), 2.0, {"a": a}, n_dim)
        assert value == pytest.approx(2.0 * phi_a**2)

    def test_two_color_free_moment_vanishes(self):
        assert free_moment(parse_word("w1 w2 w1 w2"), 1.0, {}, 4) == 0.0

    def test_limit_mode_matches_concrete(self):
        # abstract trace functional reproducing diag(+-1): word moments are
        # 1 for even powers of 'a', 0 for odd
        n_dim = 8
        word = parse_word("w1 a w1 a w1 a w1 a")

        def table(names):
            return 1.0 if len(names) % 2 == 0 else 0.0

        concrete = free_moment(word, 1.0, {"a": diag_pm1(n_dim)}, n_dim)
        abstract = free_moment(word, 1.0, trace_functional=table)
        assert concrete == pytest.approx(abstract)


class TestInfinitesimalCheck:
    def test_w2_correction_identically_zero(self):
        rep = infinitesimal_check(parse_word("w1 w1"), [8, 16, 32], 1.0)
        assert rep.exact and rep.ok
        assert all(abs(r.correction) <= 1e-13 for r in rep.results)

    def test_w4_correction_closed_form(self):
        rep = infinitesimal_check(parse_word("w1 w1 w1 w1"), [8, 16, 32, 64], 1.0)
        assert not rep.exact
        for r in rep.results:
            assert r.correction == pytest.approx(1.0 / r.n_dim**2, rel=1e-10)
        assert rep.slope == pytest.approx(-2.0, abs=1e-8)

    def test_mixed_words_slope(self):
        factory = lambda n: {"a": diag_pm1(n)}
        words = [
            "w1 a w1 a w1 a w1 a",
            "w1 w2 w1 w2",
            "w1 a w1 w1 a w1",
            "w1 w1 w1 w1 w1 w1",
            "w1 a w2 a w1 a w2 a",
        ]
        for text in words:
            rep = infinitesimal_check(parse_word(text), [8, 16, 32, 64], 1.0, factory)
            assert rep.ok, text
            assert rep.exact or rep.slope <= -1.9

    def test_needs_three_dims(self):
        with pytest.raises(ParameterError):
            infinitesimal_check(parse_word("w1 w1"), [8, 16], 1.0)

    @pytest.mark.parametrize("dims", [[8, 8, 8], [8, 16, 16, 8]])
    def test_needs_three_distinct_dims(self, dims):
        with pytest.raises(ParameterError, match="distinct"):
            infinitesimal_check(parse_word("w1 w1 w1 w1"), dims, 1.0)

    @pytest.mark.parametrize("nonzero_at", [(16,), (16, 32)])
    def test_fewer_than_three_nonzero_corrections_fit_no_slope(self, nonzero_at):
        # with a = 0 every moment of (XA)^4 vanishes, with a = diag(+-1) its
        # correction does not: one or two points leave no slope to fit
        def factory(n):
            return {"a": diag_pm1(n) if n in nonzero_at else np.zeros((n, n))}

        rep = infinitesimal_check(parse_word("w1 a w1 a w1 a w1 a"), [8, 16, 32], 1.0, factory)
        assert [r.n_dim for r in rep.results if r.correction != 0] == list(nonzero_at)
        assert rep.slope is None and not rep.exact and not rep.ok


class TestMonteCarloCrossCheck:
    def test_gue_sampler_moments(self):
        rng = np.random.default_rng(0)
        n_dim, sigma_n2 = 20, 0.05
        acc = np.zeros((n_dim, n_dim))
        reps = 400
        for _ in range(reps):
            x = sample_gue(n_dim, sigma_n2, rng)
            assert np.max(np.abs(x - x.conj().T)) == 0.0
            acc += np.abs(x) ** 2
        mean_sq = acc / reps
        assert abs(mean_sq.mean() - sigma_n2) < 5 * sigma_n2 / math.sqrt(reps)

    def test_w2_and_w4(self):
        for text in ("w1 w1", "w1 w1 w1 w1"):
            word = parse_word(text)
            res = monte_carlo_cross_check(word, 30, 2000, 1.0 / 30, seed=7)
            assert res.ok, (text, res)

    def test_two_color_word(self):
        word = parse_word("w1 w2 w1 w2")
        res = monte_carlo_cross_check(word, 30, 2000, 1.0 / 30, seed=8)
        assert res.exact == pytest.approx((1.0) ** 2 / 30**2)
        assert res.ok

    def test_minimum_samples_enforced(self):
        with pytest.raises(ParameterError):
            monte_carlo_cross_check(parse_word("w1 w1"), 10, 10, 0.1)


class TestWordGrammar:
    def test_parse_basic(self):
        word = parse_word("w1 a w1 a")
        assert word.colors == (1, 1)
        assert word.separators == (("a",), ("a",))

    def test_parse_identity_separators(self):
        word = parse_word("w1 w1")
        assert word.separators == ((), ())

    def test_parse_multi_generator_separator(self):
        word = parse_word("w1 a b w2")
        assert word.colors == (1, 2)
        assert word.separators == (("a", "b"), ())

    def test_reject_leading_separator(self):
        with pytest.raises(ParameterError):
            parse_word("a w1 w1")

    def test_reject_empty(self):
        with pytest.raises(ParameterError):
            parse_word("   ")

    def test_letter_cap(self):
        text = " ".join(["w1"] * (MAX_LETTERS + 2))
        with pytest.raises(ParameterError):
            parse_word(text)


def test_word_without_letters_rejected():
    with pytest.raises(ParameterError, match="at least one Gaussian letter"):
        PairedWord(colors=(), separators=())


def test_mismatched_separators_rejected():
    with pytest.raises(ParameterError, match="equal length"):
        PairedWord(colors=(1, 1), separators=((),))


def test_colours_of_the_wrong_length_rejected():
    with pytest.raises(ParameterError, match="length n"):
        enumerate_pairings(4, (1, 1))


def test_generator_of_the_wrong_shape_rejected():
    with pytest.raises(ParameterError, match=r"shape \(2, 2\), expected \(3, 3\)"):
        xi_exact(parse_word("w1 a w1 a"), 3, 0.1, {"a": np.eye(2)})


def test_concrete_free_moment_needs_the_dimension():
    with pytest.raises(ParameterError, match="n_dim"):
        free_moment(parse_word("w1 a w1 a"), 1.0, {"a": np.eye(3)})


def test_missing_generator_raises():
    with pytest.raises(ParameterError):
        xi_exact(parse_word("w1 a w1 a"), 4, 0.1, {})


def test_non_hermitian_generator_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ParameterError):
        xi_exact(parse_word("w1 a w1 a"), 2, 0.1, {"a": bad})


# Reference implementations: the straightforward per-word, per-call code the
# library computes bitwise the same values as, kept to pin that equality.


def _reference_separators(word, generators):
    out = []
    for sep in word.separators:
        if not sep:
            out.append(None)
        else:
            prod = generators[sep[0]]
            for name in sep[1:]:
                prod = prod @ generators[name]
            out.append(prod)
    return out


def _reference_cycle_trace(cycle, mats, n_dim):
    prod = None
    for t in cycle:
        if mats[t] is not None:
            prod = mats[t] if prod is None else prod @ mats[t]
    return complex(n_dim) if prod is None else complex(np.trace(prod))


def _reference_key_trace(key, generators, n_dim):
    """Trace of the product of the separators a cycle key names, in order."""
    mats = [_reference_fold([generators[name] for name in names]) for names in key]
    return complex(n_dim) if not mats else complex(np.trace(_reference_fold(mats)))


def reference_terms(word, cycle_value, noncrossing_only):
    """Per pairing, in enumeration order, the product of ``cycle_value`` over
    the cycles of pi*gamma."""
    terms = []
    for pairing in enumerate_pairings(word.n, word.colors):
        if noncrossing_only and crossing(pairing):
            continue
        contrib = 1.0 + 0.0j
        for cycle in cycles(pairing):
            contrib *= cycle_value(cycle)
        terms.append(contrib)
    return terms


def sequential_sum(terms):
    total = 0.0 + 0.0j
    for term in terms:
        total += term
    return total


def reference_class_sum(word, key_value, noncrossing_only):
    """Sum of count * product of ``key_value`` over the keys of each class of
    the per-pairing walk, in order of first appearance."""
    total = 0.0 + 0.0j
    for (keys, noncrossing), count in zip(*reference_cycle_classes(word)):
        if noncrossing_only and not noncrossing:
            continue
        contrib = 1.0 + 0.0j
        for key in keys:
            contrib *= key_value(key)
        total += count * contrib
    return total


def reference_xi_exact(word, n_dim, sigma_n2, generators):
    """The per-pairing sum, added pairing by pairing in enumeration order."""
    mats = _reference_separators(word, generators)
    terms = reference_terms(word, lambda cycle: _reference_cycle_trace(cycle, mats, n_dim), False)
    return sigma_n2 ** (word.n / 2) / n_dim * sequential_sum(terms)


def assert_class_sums_match_references(word, n_dim, generators, table):
    """xi_exact and free_moment (concrete and with the trace functional
    ``table`` on generator words) equal scale * the count * product sum
    bitwise, and agree with scale * the per-pairing sum in enumeration order
    to within 2 P eps |scale| sum |terms| for P terms.

    The bound: each product is the same float in both, and each sum adds the
    same exact total in another order, to within sqrt(2) (P - 1) u sum |terms|
    for the P pairings one by one and sqrt(2) K u sum |terms| for the K
    classes, a rounding of count * product included (u = eps / 2, K <= P).
    The two scalings by the same ``scale`` add sqrt(2) u each, and the total
    stays below 2 P eps sum |terms| |scale| for P >= 3; for P <= 2 the sums are
    exactly equal.
    """
    mats = _reference_separators(word, generators)
    eps = np.finfo(float).eps

    def cycle_table(cycle):
        return complex(table(tuple(g for t in cycle for g in word.separators[t])))

    cases = [
        (xi_exact(word, n_dim, 0.3, generators), 0.3 ** (word.n / 2) / n_dim, False,
         lambda key: _reference_key_trace(key, generators, n_dim),
         lambda cycle: _reference_cycle_trace(cycle, mats, n_dim)),
        (free_moment(word, 1.7, generators, n_dim), 1.7 ** (word.n / 2), True,
         lambda key: _reference_key_trace(key, generators, n_dim) / n_dim,
         lambda cycle: _reference_cycle_trace(cycle, mats, n_dim) / n_dim),
        (free_moment(word, 1.7, trace_functional=table), 1.7 ** (word.n / 2), True,
         lambda key: complex(table(tuple(name for names in key for name in names))),
         cycle_table),
    ]
    for value, scale, noncrossing_only, key_value, cycle_value in cases:
        assert value == scale * reference_class_sum(word, key_value, noncrossing_only)
        terms = reference_terms(word, cycle_value, noncrossing_only)
        bound = 2 * len(terms) * eps * abs(scale) * sum(abs(term) for term in terms)
        assert abs(value - scale * sequential_sum(terms)) <= bound


def reference_sample_gue(n_dim, sigma_n2, rng):
    scale = math.sqrt(sigma_n2)
    re = rng.standard_normal((n_dim, n_dim))
    im = rng.standard_normal((n_dim, n_dim))
    x = scale * (re + 1j * im) / math.sqrt(2.0)
    out = np.zeros((n_dim, n_dim), dtype=complex)
    iu = np.triu_indices(n_dim, k=1)
    out[iu] = x[iu]
    out[(iu[1], iu[0])] = np.conj(x[iu])
    out[np.diag_indices(n_dim)] = scale * rng.standard_normal(n_dim)
    return out


def _reference_result(word, n_dim, sigma_n2, generators, values):
    exact = reference_xi_exact(word, n_dim, sigma_n2, generators)
    n_samples = values.size
    mean = complex(values.mean())
    se = float(np.sqrt(np.sum(np.abs(values - mean) ** 2) / (n_samples - 1) / n_samples))
    return CrossCheckResult(exact=exact, mc_mean=mean, mc_se=se, n_samples=n_samples)


def _reference_draws(word, n_dim, sigma_n2, seed, m):
    """Sample m's GUE matrix for each color of the word."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, m))))
    return {c: reference_sample_gue(n_dim, sigma_n2, rng) for c in sorted(set(word.colors))}


def _reference_fold(mats):
    prod = mats[0]
    for mat in mats[1:]:
        prod = prod @ mat
    return prod


def reference_cross_check(word, n_dim, n_samples, sigma_n2, generators, seed):
    """One word on its own: its factors split at ceil(k/2), each half folded
    with @, and the trace of the product of the halves as sum(L * R.T)."""
    values = reference_cross_check_values(word, n_dim, n_samples, sigma_n2, generators, seed)
    return _reference_result(word, n_dim, sigma_n2, generators, values)


def reference_cross_check_values(word, n_dim, n_samples, sigma_n2, generators, seed):
    """The per-sample traces of ``reference_cross_check``."""
    mats = _reference_separators(word, generators)
    values = np.empty(n_samples, dtype=complex)
    for m in range(n_samples):
        gaussians = _reference_draws(word, n_dim, sigma_n2, seed, m)
        factors = []
        for t in range(word.n):
            factors.append(gaussians[word.colors[t]])
            if mats[t] is not None:
                factors.append(mats[t])
        mid = (len(factors) + 1) // 2
        left = _reference_fold(factors[:mid])
        if mid < len(factors):
            values[m] = np.sum(left * _reference_fold(factors[mid:]).T) / n_dim
        else:
            values[m] = np.trace(left) / n_dim
    return values


def reference_whole_word_cross_check(word, n_dim, n_samples, sigma_n2, generators, seed):
    """One word on its own, as the trace of the left fold of the whole word."""
    mats = _reference_separators(word, generators)
    values = np.empty(n_samples, dtype=complex)
    for m in range(n_samples):
        gaussians = _reference_draws(word, n_dim, sigma_n2, seed, m)
        prod = np.eye(n_dim, dtype=complex)
        for t in range(word.n):
            prod = prod @ gaussians[word.colors[t]]
            if mats[t] is not None:
                prod = prod @ mats[t]
        values[m] = np.trace(prod) / n_dim
    return _reference_result(word, n_dim, sigma_n2, generators, values)


def random_hermitian(n_dim, rng):
    h = rng.standard_normal((n_dim, n_dim)) + 1j * rng.standard_normal((n_dim, n_dim))
    return 0.5 * (h + h.conj().T)


class TestReferenceEquivalence:
    def test_sample_gue_matches_reference_assembly(self):
        for n_dim in (1, 2, 7, 50):
            rng_new = np.random.Generator(np.random.Philox(np.random.SeedSequence((3, n_dim))))
            rng_ref = np.random.Generator(np.random.Philox(np.random.SeedSequence((3, n_dim))))
            for _ in range(3):
                new = sample_gue(n_dim, 0.3, rng_new)
                ref = reference_sample_gue(n_dim, 0.3, rng_ref)
                assert new.dtype == ref.dtype and np.array_equal(new, ref)
            # both consumed the same stream
            assert rng_new.standard_normal() == rng_ref.standard_normal()

    CROSS_CHECK_TEXTS = [
        "w2 w2",  # only color 2: takes the first draw, as when checked alone
        "w1 w1",
        "w1 w1 w1 w1",  # shares its prefixes with the word above
        "w1 w2 w1 w2",
        "w2 a w1 a w2 a w1 a",
        "w1 a w1 a",
        "w1 a w1 a w1 a w1 a",
        "w1 a b w1 b a",
        "w1 b w1 b w1 b",  # its right half starts with the diagonal separator
    ]

    def test_cross_checks_match_per_word_reference(self):
        n_dim, n_samples, seed = 6, 1000, 13
        rng = np.random.default_rng(5)
        gens = {"a": random_hermitian(n_dim, rng), "b": diag_pm1(n_dim)}
        texts = self.CROSS_CHECK_TEXTS
        words = [parse_word(t) for t in texts]
        got = monte_carlo_cross_checks(words, n_dim, n_samples, 0.2, gens, seed)
        assert len(got) == len(words)
        for text, word, res in zip(texts, words, got):
            ref = reference_cross_check(word, n_dim, n_samples, 0.2, gens, seed)
            assert res == ref, text
            assert monte_carlo_cross_check(word, n_dim, n_samples, 0.2, gens, seed) == ref

    def test_cross_checks_match_the_whole_word_fold(self):
        # the halves sum the same products in another order: the means agree
        # to rounding with the trace of the whole word's left fold
        n_dim, n_samples, seed = 6, 1000, 13
        rng = np.random.default_rng(5)
        gens = {"a": random_hermitian(n_dim, rng), "b": diag_pm1(n_dim)}
        words = [parse_word(t) for t in self.CROSS_CHECK_TEXTS]
        got = monte_carlo_cross_checks(words, n_dim, n_samples, 0.2, gens, seed)
        for text, word, res in zip(self.CROSS_CHECK_TEXTS, words, got):
            ref = reference_whole_word_cross_check(word, n_dim, n_samples, 0.2, gens, seed)
            assert res.exact == ref.exact, text
            assert abs(res.mc_mean - ref.mc_mean) <= 1e-12 * max(1.0, abs(ref.exact)), text

    def test_cross_checks_equal_across_worker_counts(self):
        n_dim, n_samples, seed = 5, 1000, 21
        rng = np.random.default_rng(9)
        gens = {"a": random_hermitian(n_dim, rng), "b": diag_pm1(n_dim)}
        words = [parse_word(t) for t in
                 ("w1 a w2 a w1 w2", "w2 b w1 a w2 b w1 a", "w1 a b w1 b a")]
        serial = monte_carlo_cross_checks(words, n_dim, n_samples, 0.2, gens, seed, threads=1)
        for threads in (2, 8):
            assert monte_carlo_cross_checks(words, n_dim, n_samples, 0.2, gens, seed,
                                            threads=threads) == serial

    def test_pairings_enumerated_once_per_word(self, monkeypatch):
        calls = []
        original = infinitesimal._pairing_blocks

        def counting(n, colors):
            calls.append(n)
            return original(n, colors)

        monkeypatch.setattr(infinitesimal, "_pairing_blocks", counting)
        factory = lambda n: {"a": diag_pm1(n)}
        for _ in range(2):
            word = parse_word("w1 a w1 w1 a w1")
            infinitesimal_check(word, [8, 16, 32], 1.0, factory)
            xi_exact(word, 10, 0.1, factory(10))
            free_moment(word, 1.0, trace_functional=lambda names: 1.0)
        # one enumeration per word object, none carried over to a fresh parse
        assert calls == [4, 4]


_separator = st.lists(st.sampled_from(["a", "b"]), max_size=2).map(tuple)


@st.composite
def _words(draw):
    # every color an even number of times, so that pairings exist
    half = draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=4))
    colors = draw(st.permutations(half + half))
    seps = draw(st.lists(_separator, min_size=len(colors), max_size=len(colors)))
    return PairedWord(colors=tuple(colors), separators=tuple(seps))


@settings(max_examples=60, deadline=None)
@given(word=_words(), n_dim=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_exact_sums_match_reference(word, n_dim, seed):
    rng = np.random.default_rng(seed)
    gens = {"a": random_hermitian(n_dim, rng), "b": random_hermitian(n_dim, rng)}

    def table(names):
        return complex(len(names) % 3, names.count("a"))

    assert_class_sums_match_references(word, n_dim, gens, table)


@pytest.mark.parametrize("text", [" ".join(["w1"] * 12), "w1 a w2 b w1 a w2 b"])
@pytest.mark.parametrize("n_dim", [3, 8])
def test_class_sums_match_reference_with_non_integer_values(text, n_dim):
    # with non-integer separator moments the class products are inexact, so
    # count * product and the per-pairing sum differ in their last bits; the
    # sums must have the bits of the first and lie within rounding of the second
    rng = np.random.default_rng(n_dim)
    gens = {"a": random_hermitian(n_dim, rng), "b": random_hermitian(n_dim, rng)}

    def table(names):
        return complex(0.7 + 0.1 * len(names), 0.3 * names.count("a") - 0.2)

    assert_class_sums_match_references(parse_word(text), n_dim, gens, table)


@pytest.mark.parametrize("n_dim", [1, 2, 3, 7, 16, 50, 101, 200])
def test_column_scaling_is_the_diagonal_product(n_dim):
    # the cross-check multiplies by a diagonal separator as P * d
    rng = np.random.default_rng(n_dim)
    for _ in range(5):
        p = rng.standard_normal((n_dim, n_dim)) + 1j * rng.standard_normal((n_dim, n_dim))
        d = rng.standard_normal(n_dim)
        for diag in (d, d.astype(complex)):
            assert np.array_equal(p * diag, p @ np.diag(diag))


@st.composite
def _cross_check_words(draw):
    # any colors, so odd words and words without pairings occur; "d" is a
    # diagonal separator, "a" a full one, and their products are either
    colors = draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=5))
    seps = draw(st.lists(st.sampled_from([(), ("d",), ("a",), ("d", "d"), ("a", "d")]),
                         min_size=len(colors), max_size=len(colors)))
    return PairedWord(colors=tuple(colors), separators=tuple(seps))


@settings(max_examples=20, deadline=None)
@example(words=[PairedWord((1,), ((),)), PairedWord((1, 2, 1), (("d",), (), ("a",)))],
         n_dim=3, seed=0)
@given(words=st.lists(_cross_check_words(), min_size=1, max_size=3),
       n_dim=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_cross_checks_match_reference_at_any_worker_count(words, n_dim, seed):
    # every sample's trace of every word, not only the means, has the bits
    # of that word's own fold
    rng = np.random.default_rng(seed)
    gens = {"a": random_hermitian(n_dim, rng), "d": np.diag(rng.standard_normal(n_dim))}
    values = [reference_cross_check_values(word, n_dim, 1000, 0.3, gens, seed) for word in words]
    refs = [_reference_result(word, n_dim, 0.3, gens, v) for word, v in zip(words, values)]
    for threads in (1, 2):
        columns = []

        def recording(vals):
            columns.append(vals.copy())
            return mean_and_se(vals)

        with mock.patch.object(infinitesimal, "mean_and_se", recording):
            got = monte_carlo_cross_checks(words, n_dim, 1000, 0.3, gens, seed, threads=threads)
        assert got == refs
        assert [c.tobytes() for c in columns] == [v.tobytes() for v in values]
