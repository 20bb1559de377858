import functools
import random
import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from freesplit.errors import InvalidInputError, ParseError
from freesplit.words import (
    Alphabet,
    CyclicWord,
    FreeGroupMap,
    MultiplierAutomorphism,
    _least_rotation,
    _parse_cyclic,
    canonical_rotation,
    conjugacy_class_rep,
    cyclic_reduce,
    format_letter,
    format_word,
    free_reduce,
    invert_word,
    is_cyclically_reduced,
    parse_word,
    total_cyclic_length,
    word_key,
)

import helpers


ALPH2 = Alphabet(2)
# Few letters, so that periodic words and repeated rotations are common.
LETTERS = st.integers(min_value=-2, max_value=2).filter(bool)


@st.composite
def long_words(draw):
    """Words of up to 200 letters at ranks 1-5, half of them proper powers w^k
    (k = 2-5), whose least rotation starts at several offsets."""
    rank = draw(st.integers(min_value=1, max_value=5))
    letters = st.integers(min_value=-rank, max_value=rank).filter(bool)
    if draw(st.booleans()):
        return tuple(draw(st.lists(letters, min_size=1, max_size=200)))
    power = draw(st.integers(min_value=2, max_value=5))
    return tuple(draw(st.lists(letters, min_size=1, max_size=40))) * power


@st.composite
def maps_and_words(draw, junk=False):
    """A map at rank 1-6 with unreduced, sometimes empty, generator images and
    a word of its letters, unreduced; with ``junk``, members that are no
    letter of the rank (0, past the rank, floats, bools, strings, lists) too."""
    rank = draw(st.integers(min_value=1, max_value=6))
    letters = st.integers(min_value=-rank, max_value=rank).filter(bool)
    images = draw(st.lists(st.lists(letters, max_size=6), min_size=rank, max_size=rank))
    if junk:
        letters = st.one_of(letters, st.sampled_from(
            [0, rank + 1, -rank - 1, 1.0, -1.0, True, False, "a", None, (1,), [1]]))
    return FreeGroupMap(rank, images), tuple(draw(st.lists(letters, max_size=40)))


def nested_key(word):
    """The canonical order as a (generator index, inverse flag) pair per letter."""
    return tuple((abs(x), 0 if x > 0 else 1) for x in word)


def reference_cyclic_reduce(word):
    """The conjugator found by searching every rotation for the canonical one."""
    w = free_reduce(word)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    core, prefix = w[i:j], w[:i]
    if not core:
        return None, prefix
    result = CyclicWord(core)
    for k in range(len(core)):
        if core[k:] + core[:k] == result.letters:
            return result, free_reduce(prefix + core[:k])
    raise AssertionError("canonical form is not a rotation")


def W(text, rank=2):
    return parse_word(text, Alphabet(rank))


def CW(text, rank=2):
    core, _ = cyclic_reduce(W(text, rank))
    assert core is not None
    return core


class TestFreeReduce:
    def test_full_cancellation(self):
        assert free_reduce(W("abBA")) == ()

    def test_prefix_cancellation(self):
        assert free_reduce(W("aAb")) == (2,)

    def test_fixed_point(self):
        assert free_reduce(W("abAB")) == (1, 2, -1, -2)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            free_reduce((0,))

    @pytest.mark.parametrize("letters", [(1, "x"), ("x",), (2, [1]), (1, None)])
    def test_refuses_a_member_that_is_not_a_letter(self, letters):
        # a member that cannot be negated is refused as a letter, first or not
        bad = letters[-1]
        with pytest.raises(InvalidInputError, match=f"^invalid letter {re.escape(repr(bad))}$"):
            free_reduce(letters)
        with pytest.raises(InvalidInputError, match=f"^invalid letter {re.escape(repr(bad))}$"):
            cyclic_reduce(letters)

    def test_randomized_contract(self):
        # idempotent, length-nonincreasing, and w w^-1 cancels entirely
        rng = random.Random(11)
        for _ in range(1000):
            rank = rng.randint(1, 4)
            raw = tuple(
                rng.choice([s * i for i in range(1, rank + 1) for s in (1, -1)])
                for _ in range(rng.randint(0, 20))
            )
            reduced = free_reduce(raw)
            assert free_reduce(reduced) == reduced
            assert len(reduced) <= len(raw)
            assert free_reduce(raw + invert_word(raw)) == ()

    @given(st.lists(st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)))
    def test_hypothesis_idempotent(self, letters):
        reduced = free_reduce(letters)
        assert free_reduce(reduced) == reduced

    @pytest.mark.parametrize("letters, bad", [((1, -1.0), -1.0), ((2, 1, -1.0, -2), -1.0),
                                              ((-1, 1.0), 1.0), ((2, -2.0, 1), -2.0)])
    def test_a_member_equal_to_an_inverse_is_checked_before_it_cancels(self, letters, bad):
        # -1.0 == -1, so (1, -1.0) once reduced to () with no member left to check
        message = f"^invalid letter {re.escape(repr(bad))}$"
        with pytest.raises(InvalidInputError, match=message):
            free_reduce(letters)
        with pytest.raises(InvalidInputError, match=message):
            cyclic_reduce(letters)
        with pytest.raises(InvalidInputError, match=message):
            FreeGroupMap(2, [letters, (2,)])


class TestCyclicReduce:
    def test_one_step_conjugation(self):
        core, conj = cyclic_reduce(W("baB"))
        assert core == CW("a") and conj == (2,)

    def test_already_reduced(self):
        core, conj = cyclic_reduce(W("abAB"))
        assert core.letters == (1, 2, -1, -2) and conj == ()

    def test_trivial(self):
        assert cyclic_reduce(()) == (None, ())
        assert cyclic_reduce(W("abBA")) == (None, ())

    def test_round_trip_randomized(self):
        rng = random.Random(5)
        for _ in range(500):
            raw = helpers.random_reduced_word(rng, 3, rng.randint(0, 16))
            core, conj = cyclic_reduce(raw)
            rebuilt = free_reduce(
                conj + (core.letters if core else ()) + invert_word(conj)
            )
            assert rebuilt == free_reduce(raw)

    @given(st.lists(LETTERS, max_size=24))
    def test_matches_rotation_search(self, letters):
        core, conj = cyclic_reduce(letters)
        assert (core, conj) == reference_cyclic_reduce(letters)
        if core is not None:
            assert core.letters == canonical_rotation(core.letters)
            assert is_cyclically_reduced(core.letters)
        body = core.letters if core else ()
        assert free_reduce(conj + body + invert_word(conj)) == free_reduce(letters)

    @given(long_words(), st.lists(st.integers(min_value=-5, max_value=5).filter(bool), max_size=8))
    def test_conjugated_powers_match_rotation_search(self, word, g):
        # g w g^-1: the conjugator must come from the first least offset of the core
        letters = tuple(g) + word + invert_word(g)
        assert cyclic_reduce(letters) == reference_cyclic_reduce(letters)


class TestLeastRotation:
    @given(long_words())
    def test_first_least_offset(self, word):
        keys = [word_key(word[i:] + word[:i]) for i in range(len(word))]
        assert _least_rotation(word) == keys.index(min(keys))

    def test_powers_start_at_the_first_offset(self):
        assert _least_rotation((2, 1) * 5) == 1
        assert _least_rotation((-1, 1, 1) * 4) == 1
        assert _least_rotation((1,) * 7) == 0


class TestCyclicWord:
    def test_rotation_equality(self):
        rng = random.Random(23)
        for _ in range(300):
            w = helpers.random_cyclic_word(rng, 3, rng.randint(1, 12))
            k = rng.randrange(len(w))
            rotated = w.letters[k:] + w.letters[:k]
            assert CyclicWord(rotated) == w
            assert hash(CyclicWord(rotated)) == hash(w)

    def test_canonical_rotation_order(self):
        # letter order is a < A < b < B
        assert CW("bba").letters == (1, 2, 2)
        assert canonical_rotation((2, 2, 1)) == (1, 2, 2)
        assert canonical_rotation((2, 2, -1)) == (-1, 2, 2)

    @given(st.lists(LETTERS, min_size=1, max_size=24))
    def test_canonical_rotation_matches_nested_key_reference(self, letters):
        word = tuple(letters)
        expected = min((word[i:] + word[:i] for i in range(len(word))), key=nested_key)
        assert canonical_rotation(word) == expected

    @given(st.lists(LETTERS, max_size=6), st.lists(LETTERS, max_size=6))
    def test_word_key_order_matches_nested_key(self, u, v):
        assert (word_key(u) < word_key(v)) == (nested_key(u) < nested_key(v))
        assert (word_key(u) == word_key(v)) == (u == v)

    def test_rejects_unreduced(self):
        with pytest.raises(InvalidInputError):
            CyclicWord((1, -1, 2))
        with pytest.raises(InvalidInputError):
            CyclicWord((1, 2, -1))  # first letter inverse of last
        with pytest.raises(InvalidInputError):
            CyclicWord(())

    @pytest.mark.parametrize("letters", [(1, 0), (0,), (1.0,), (1, "x"), ("x",), (1, -1.0)])
    def test_refuses_a_member_that_is_not_a_nonzero_int(self, letters):
        # refused as a letter before the reduction test, which took (1, 0) for
        # a reduced word
        bad = next(x for x in letters if not isinstance(x, int) or x == 0)
        with pytest.raises(InvalidInputError, match=f"^invalid letter {re.escape(repr(bad))}$"):
            CyclicWord(letters)

    def test_inverse_not_identified(self):
        assert CW("ab") != CW("ab").inverse()

    def test_conjugacy_class_rep(self):
        assert conjugacy_class_rep(CW("ab")) == min(CW("ab"), CW("BA"))
        assert conjugacy_class_rep(CW("a")) == CW("a")
        assert conjugacy_class_rep(CW("A")) == CW("a")

    def test_proper_power_detection(self):
        assert helpers.is_proper_power(CW("abab"))
        assert helpers.is_proper_power(CW("aa"))
        assert not helpers.is_proper_power(CW("ab"))
        assert not helpers.is_proper_power(CW("abAB"))


class TestTotalCyclicLength:
    def test_examples(self):
        assert total_cyclic_length([CW("abAB")]) == 4
        assert total_cyclic_length([CW("ab"), CW("b")]) == 3
        assert total_cyclic_length([]) == 0


class TestAutomorphisms:
    def test_multiplier_action_example(self):
        # multiplier b^-1 with side {b^-1, a} sends a to a b^-1, fixes b
        phi = MultiplierAutomorphism(2, -2, frozenset({-2, 1}))
        assert phi.to_map().images == ((1, -2), (2,))
        assert phi.to_map().apply_cyclic(CW("ab")) == CW("a")

    def test_side_set_constraints(self):
        with pytest.raises(InvalidInputError):
            MultiplierAutomorphism(2, 1, frozenset({2}))  # x not in side
        with pytest.raises(InvalidInputError):
            MultiplierAutomorphism(2, 1, frozenset({1, -1}))  # x^-1 in side

    def test_composition(self):
        phi = MultiplierAutomorphism(2, -2, frozenset({-2, 1}))
        composed = FreeGroupMap.identity(2).then(phi.to_map()).then(phi.to_map())
        assert composed.apply((1,)) == (1, -2, -2)

    def test_map_requires_all_images(self):
        with pytest.raises(InvalidInputError):
            FreeGroupMap(2, [(1,)])

    def test_map_refuses_image_letters_outside_its_rank(self):
        for images, bad in (([(5,), (1,)], 5), ([(1,), (2, -3)], -3)):
            with pytest.raises(InvalidInputError, match=f"^letter {bad} outside alphabet of rank 2$"):
                FreeGroupMap(2, images)
        assert FreeGroupMap(2, [(1, 3, -3), (2,)]).images == ((1,), (2,))

    @pytest.mark.parametrize("word, bad", [((0,), "0"), ((1, 0, 2), "0"), ((3,), "3"),
                                           ((-3,), "-3"), ((2, 1.0), "1.0"), ((1, "a"), "'a'")])
    def test_map_refuses_letters_outside_its_rank(self, word, bad):
        # the identity once sent 0 to b^-1, so that a 0 b came out as a
        message = f"^letter {re.escape(bad)} outside alphabet of rank 2$"
        with pytest.raises(InvalidInputError, match=message):
            FreeGroupMap.identity(2).apply(word)

    @settings(max_examples=300, deadline=None)
    @given(maps_and_words())
    def test_apply_matches_the_letter_by_letter_oracle(self, case):
        mapping, word = case
        expected = helpers.reference_apply(mapping, word)
        assert mapping.apply(word) == expected
        assert mapping.apply(list(word)) == expected
        assert mapping.apply(iter(word)) == expected  # a one-shot iterable

    @settings(max_examples=300, deadline=None)
    @given(maps_and_words(junk=True))
    def test_apply_refuses_the_first_bad_member_as_the_oracle_does(self, case):
        mapping, word = case
        outcomes = []
        for apply in (mapping.apply, functools.partial(helpers.reference_apply, mapping)):
            try:
                outcomes.append(apply(word))
            except InvalidInputError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("word, bad", [((1, 1.0), "1.0"), ((2, -2.0, 2), "-2.0"),
                                           ((1, [1], 0), "[1]"), ((3, 1, 0), "3"),
                                           ((1, 2, 0, -3), "0"), ((-1, {}, 1.0), "{}")])
    def test_apply_names_the_first_bad_member_in_word_order(self, word, bad):
        # a float shares its letter's hash, and a list has none, yet both are refused
        message = f"^letter {re.escape(bad)} outside alphabet of rank 2$"
        with pytest.raises(InvalidInputError, match=message):
            FreeGroupMap.identity(2).apply(word)

    def test_apply_maps_each_distinct_letter_once(self, monkeypatch):
        mapping = MultiplierAutomorphism(2, 1, frozenset({1, -2})).to_map()
        word = W("abAbabBBa")
        letter_image = FreeGroupMap.letter_image
        mapped = []

        def counting(self, x):
            mapped.append(x)
            return letter_image(self, x)

        monkeypatch.setattr(FreeGroupMap, "letter_image", counting)
        assert mapping.apply(word) == helpers.reference_apply(mapping, word)
        assert sorted(mapped[:4]) == [-2, -1, 1, 2] and len(mapped) == 4 + len(word)

    def test_composition_and_cyclic_images_refuse_letters_outside_the_rank(self):
        message = "^letter 3 outside alphabet of rank 2$"
        with pytest.raises(InvalidInputError, match=message):
            FreeGroupMap.identity(3).then(FreeGroupMap.identity(2))
        with pytest.raises(InvalidInputError, match=message):
            FreeGroupMap.identity(2).apply_cyclic(CyclicWord((3,)))
        with pytest.raises(InvalidInputError, match="^letter 0 outside alphabet of rank 2$"):
            FreeGroupMap.identity(2).letter_image(0)


class TestTextSyntax:
    def test_letter_form(self):
        assert parse_word("abAB", ALPH2) == (1, 2, -1, -2)

    def test_numeric_form(self):
        assert parse_word("1 2 -1 -2", ALPH2) == (1, 2, -1, -2)

    def test_empty_is_trivial(self):
        assert parse_word("", ALPH2) == ()
        assert parse_word("   ", ALPH2) == ()

    def test_mixed_forms_rejected(self):
        with pytest.raises(ParseError):
            parse_word("a 1", ALPH2)
        with pytest.raises(ParseError):
            parse_word("a1", ALPH2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError):
            parse_word("c", ALPH2)
        with pytest.raises(ParseError):
            parse_word("3", ALPH2)
        with pytest.raises(ParseError):
            parse_word("0", ALPH2)

    def test_format_round_trip(self):
        rng = random.Random(31)
        for _ in range(200):
            w = helpers.random_reduced_word(rng, 4, rng.randint(1, 12))
            assert parse_word(format_word(w), Alphabet(4)) == w

    def test_numeric_fallback_beyond_z(self):
        assert format_letter(27) == "a27"
        assert format_letter(-27) == "A27"
        assert format_word((27, -1)) == "27 -1"
        assert parse_word("27 -1", Alphabet(27)) == (27, -1)

    def test_empty_renders_as_identity(self):
        assert format_word(()) == "1"

    def test_format_matches_the_letter_by_letter_rule(self):
        # letter form when every index fits a-z, else the numeric form
        rng = random.Random(37)
        for _ in range(500):
            rank = rng.choice((2, 26, 27, 40))
            w = helpers.random_reduced_word(rng, rank, rng.randint(1, 12))
            expected = ("".join(map(format_letter, w)) if all(abs(x) <= 26 for x in w)
                        else " ".join(map(str, w)))
            assert format_word(w) == format_word(iter(w)) == expected


@st.composite
def word_texts(draw):
    """A rank from 1 to 30 and a word text: letter form, often reducible or
    trivial; numeric form with spaces or commas; or either with a letter
    outside the rank, 0, a non-ASCII letter or digit, or a stray separator."""
    rank = draw(st.integers(1, 30))
    lower = string.ascii_lowercase[:rank]
    letters = st.sampled_from(lower + lower.upper())
    odd = st.sampled_from(["\uff41", "\u00e9", "\u00b2", "z", "Z", " ", ",", "0", "1", "-"])
    numbers = st.lists(st.integers(-rank - 2, rank + 2), max_size=8)
    separators = st.sampled_from([" ", ",", ", ", "  "])
    return rank, draw(st.one_of(
        st.text(letters, max_size=12),
        st.text(st.one_of(letters, letters, letters, odd), max_size=12),
        st.builds(lambda sep, xs: sep.join(map(str, xs)), separators, numbers),
        st.sampled_from(["", " ", "aA", "abBA", "1 -1", "\uff41", "\u00e9", "\u00b2", "1 \u00b2",
                         "a\u00b2", "\u00e9a", "27 -1"]),
    ))


def outcome(fn, *args):
    """A call's result, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


class TestParseCyclic:
    """The one-loop reader against parsing, then cyclically reducing."""

    @settings(max_examples=500)
    @given(word_texts())
    def test_matches_parse_word_then_cyclic_reduce(self, case):
        rank, text = case
        alphabet = Alphabet(rank)

        def reference(text, alphabet):
            letters = parse_word(text, alphabet)
            return cyclic_reduce(letters)[0], len(letters)

        assert outcome(_parse_cyclic, text, alphabet) == outcome(reference, text, alphabet)

    def test_examples(self):
        assert _parse_cyclic("bAaaBBb", ALPH2) == (CyclicWord((1,)), 7)
        assert _parse_cyclic("2 -1", ALPH2) == (CyclicWord((-1, 2)), 2)
        assert _parse_cyclic("abBA", ALPH2) == (None, 4)
        with pytest.raises(ParseError, match="outside alphabet of rank 2"):
            _parse_cyclic("abc", ALPH2)
        with pytest.raises(ParseError, match="malformed"):
            _parse_cyclic("a\u00b2", ALPH2)


class TestAlphabet:
    def test_rank_validation(self):
        with pytest.raises(InvalidInputError):
            Alphabet(0)

    def test_letters_order(self):
        assert Alphabet(2).letters() == (1, -1, 2, -2)

    def test_is_cyclically_reduced(self):
        assert is_cyclically_reduced((1, 2))
        assert not is_cyclically_reduced((1, -1))
        assert not is_cyclically_reduced(())
