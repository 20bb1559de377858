"""Free-group word arithmetic.

Letters are nonzero integers: ``+i`` is the i-th generator, ``-i`` its
inverse.  Words are tuples of letters kept freely reduced.  Cyclic words
(conjugacy classes of nontrivial elements) are wrapped in
:class:`CyclicWord`, which stores a canonical rotation so that equal
classes compare and hash equal.

The canonical order on letters is ``a < a^-1 < b < b^-1 < ...``, i.e.
generator index ascending with the positive letter first.
"""

from __future__ import annotations

import itertools

from .errors import InvalidInputError, ParseError, _int_text

Word = tuple[int, ...]


def word_key(word) -> tuple[int, ...]:
    """Sort key realising the canonical order: a_i is 2i-1 and a_i^-1 is 2i."""
    return tuple(2 * x - 1 if x > 0 else -2 * x for x in word)


def letter_index(x: int) -> int:
    """Position of a letter in canonical order: a is 0, a^-1 is 1, b is 2, ...

    The index of x^-1 is that of x with its last bit flipped.
    """
    return 2 * x - 2 if x > 0 else -2 * x - 1


def invert_word(word) -> Word:
    """Group inverse: reverse the word and invert each letter."""
    return tuple(-x for x in reversed(word))


class _Record:
    """A value: fields in ``__slots__``, set once, in order, by ``__init__``.

    Records of one class compare and hash by ``_key``, all their fields
    unless a class says otherwise, and refuse attribute assignment.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())


class Alphabet(_Record):
    """The ranked generating set a_1, ..., a_n of a free group."""

    __slots__ = ("rank",)

    def __init__(self, rank: int):
        if rank < 1:
            raise InvalidInputError(f"alphabet rank must be >= 1, got {_int_text(rank)}")
        super().__init__(rank)

    def letters(self) -> tuple[int, ...]:
        """All 2n letters in canonical order: 1, -1, 2, -2, ..."""
        return tuple(s * i for i in range(1, self.rank + 1) for s in (1, -1))

    def contains(self, letter: int) -> bool:
        return letter != 0 and abs(letter) <= self.rank

    def validate_letters(self, letters) -> None:
        if not _within_rank(letters, self.rank):
            x = next(x for x in letters if not _within_rank((x,), self.rank))
            raise InvalidInputError(f"letter {x!r} outside alphabet of rank {self.rank}")


def free_reduce(letters) -> Word:
    """Freely reduce a letter sequence by cancelling adjacent x, x^-1 pairs.

    Idempotent and length-nonincreasing.

    >>> free_reduce((1, 2, -2, -1))
    ()
    >>> free_reduce((1, -1, 2))
    (2,)
    """
    out: list[int] = []
    for x in letters:
        # checked before it can cancel: 1.0 equals the letter 1 but is no letter
        if not isinstance(x, int) or x == 0:
            raise InvalidInputError(f"invalid letter {x!r}")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def is_cyclically_reduced(word) -> bool:
    word = tuple(word)
    if not word:
        return False
    if any(word[i] == -word[i + 1] for i in range(len(word) - 1)):
        return False
    return word[0] != -word[-1]


def _least_rotation(word: Word) -> int:
    """First offset k at which word[k:] + word[:k] is least in canonical order.

    Offsets i < j race (Shiloach 1981): a mismatch after k equal letters rules
    out the loser and the k offsets after it.  At k = n the word is a proper
    power, and i is first, since every other offset below j is out.
    """
    n = len(word)
    key = [2 * x - 1 if x > 0 else -2 * x for x in word] * 2  # word_key, as a list
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = key[i + k], key[j + k]
        if a == b:
            k += 1
        elif a < b:  # j loses
            j, k = j + k + 1, 0
        else:  # i loses, and j leads
            i, j, k = j, max(j, i + k) + 1, 0
    return i


def canonical_rotation(word: Word) -> Word:
    """Lexicographically least rotation under the canonical letter order."""
    k = _least_rotation(word)
    return word[k:] + word[:k]


class CyclicWord(_Record):
    """A cyclically reduced word stored in canonical rotation.

    Represents the conjugacy class of a nontrivial element.  Two
    CyclicWords built from any rotations of the same letter sequence
    compare equal.  A word and its inverse are distinct objects.
    """

    __slots__ = ("letters",)

    def __init__(self, letters):
        letters = tuple(letters)
        if not letters:
            raise InvalidInputError("cyclic word must be nonempty")
        for x in letters:
            if not isinstance(x, int) or x == 0:
                raise InvalidInputError(f"invalid letter {x!r}")
        if not is_cyclically_reduced(letters):
            raise InvalidInputError(f"not cyclically reduced: {letters}")
        super().__init__(canonical_rotation(letters))

    @classmethod
    def _from_canonical(cls, letters: Word) -> "CyclicWord":
        """Wrap letters already cyclically reduced and in canonical rotation."""
        word = object.__new__(cls)
        _set_letters(word, letters)
        return word

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __hash__(self):
        return hash(("CyclicWord", self.letters))

    def __lt__(self, other):
        if not isinstance(other, CyclicWord):
            return NotImplemented
        return (len(self.letters), word_key(self.letters)) < (
            len(other.letters),
            word_key(other.letters),
        )

    def __repr__(self):
        return f"CyclicWord({format_word(self.letters)!r})"

    def inverse(self) -> "CyclicWord":
        return CyclicWord(invert_word(self.letters))

    def rotations(self) -> tuple[Word, ...]:
        """All distinct rotations, as linear words."""
        w = self.letters
        return tuple({w[i:] + w[:i] for i in range(len(w))})

    def generator_support(self) -> frozenset[int]:
        return frozenset(abs(x) for x in self.letters)


_set_letters = CyclicWord.letters.__set__  # the slot, past the refusing __setattr__


def conjugacy_class_rep(word: CyclicWord) -> CyclicWord:
    """Canonical representative of the class {word, word inverse}."""
    inv = word.inverse()
    return word if word < inv or word == inv else inv


def _core(w: Word) -> Word:
    """The cyclically reduced c of a reduced word w = g c g^-1, in w's rotation."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def _cyclic_core(word) -> tuple[CyclicWord | None, Word, Word]:
    """``(c, prefix, head)``: the ``cyclic_reduce`` core ``c`` and its
    conjugator ``g = free_reduce(prefix + head)``, left for callers to reduce."""
    w = free_reduce(word)
    core = _core(w)
    i = (len(w) - len(core)) // 2
    if not core:
        return None, w[:i], ()
    # rotating the core to canonical form shifts the conjugator:
    # core = core[:k] . canonical . core[:k]^-1
    k = _least_rotation(core)
    return CyclicWord._from_canonical(core[k:] + core[:k]), w[:i], core[:k]


def cyclic_reduce(word) -> tuple[CyclicWord | None, Word]:
    """Split a word as g c g^-1 with c cyclically reduced.

    Returns ``(c, g)``; ``c`` is None exactly when the input is trivial.

    >>> cyclic_reduce((2, 1, -2))
    (CyclicWord('a'), (2,))
    """
    core, prefix, head = _cyclic_core(word)
    return core, free_reduce(prefix + head) if head else prefix


def total_cyclic_length(family) -> int:
    """Sum of cyclically reduced lengths over a family of cyclic words."""
    return sum(len(w) for w in family)


def _family_letters(alphabet: Alphabet, family) -> list[Word]:
    """The letter tuples of a family; refuses, member by member, one that is
    not a CyclicWord, then one with a letter outside the alphabet.  A
    CyclicWord's letters are nonzero ints, so their least and greatest
    decide the range."""
    rank = alphabet.rank
    words = []
    for w in family:
        if not isinstance(w, CyclicWord):
            raise InvalidInputError(f"family members must be CyclicWord, got {w!r}")
        letters = w.letters
        if min(letters) < -rank or max(letters) > rank:
            alphabet.validate_letters(letters)  # names the first letter outside
        words.append(letters)
    return words


# ---------------------------------------------------------------------------
# Automorphisms


class FreeGroupMap(_Record):
    """An endomorphism of the free group, given by generator images.

    All maps produced by this package are automorphisms (compositions of
    Whitehead automorphisms), but nothing here depends on invertibility.
    """

    __slots__ = ("rank", "images")

    def __init__(self, rank: int, images):
        images = tuple(tuple(img) for img in images)
        if len(images) != rank:
            raise InvalidInputError(f"need {rank} generator images, got {len(images)}")
        images = tuple(free_reduce(img) for img in images)
        for x in itertools.chain.from_iterable(images):
            if not -rank <= x <= rank:
                raise InvalidInputError(f"letter {x!r} outside alphabet of rank {rank}")
        super().__init__(rank, images)

    @classmethod
    def identity(cls, rank: int) -> "FreeGroupMap":
        return cls(rank, [(i,) for i in range(1, rank + 1)])

    def letter_image(self, x: int) -> Word:
        try:
            if x > 0:
                return self.images[x - 1]
            if x:
                return invert_word(self.images[-x - 1])
        except (IndexError, TypeError):  # past the rank, or not an int
            pass
        raise InvalidInputError(f"letter {x!r} outside alphabet of rank {self.rank}")

    def apply(self, word) -> Word:
        """The freely reduced image of a word, each distinct letter mapped once.

        Past a member that is not an int (1.0 would share the entry of 1) or
        not a letter of the rank, letters are mapped in word order, so that
        the refusal names the first bad member.
        """
        word = tuple(word)
        letters = set(word) if set(map(type, word)) <= {int} else word
        if letters is not word and not _within_rank(letters, self.rank):
            letters = word
        images = {x: self.letter_image(x) for x in letters}
        # image letters were checked when the map was built: no member test here
        out = [0]  # 0 cancels no letter
        for x in itertools.chain.from_iterable(map(images.__getitem__, word)):
            if out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out[1:])

    def apply_cyclic(self, word: CyclicWord) -> CyclicWord:
        core = _cyclic_core(self.apply(word.letters))[0]
        if core is None:
            raise InvalidInputError(f"map sends {word!r} to the trivial word")
        return core

    def then(self, after: "FreeGroupMap") -> "FreeGroupMap":
        """The composition applying self first, then ``after``."""
        return FreeGroupMap(self.rank, [after.apply(img) for img in self.images])

    def __repr__(self):
        imgs = ", ".join(format_word(img) for img in self.images)
        return f"FreeGroupMap({self.rank}, [{imgs}])"


class MultiplierAutomorphism(_Record):
    """Type II Whitehead automorphism with multiplier x and side set A.

    Requires x in A and x^-1 not in A.  Fixes x, and sends every other
    generator g to x^-p g x^q where p = 1 iff g^-1 in A and q = 1 iff
    g in A.  (So membership of g in A appends x, membership of g^-1
    prepends x^-1.)
    """

    __slots__ = ("rank", "multiplier", "side")

    def __init__(self, rank: int, multiplier: int, side: frozenset[int]):
        alphabet = Alphabet(rank)
        alphabet.validate_letters([multiplier])
        alphabet.validate_letters(side)
        if multiplier not in side:
            raise InvalidInputError("multiplier must belong to the side set")
        if -multiplier in side:
            raise InvalidInputError("side set must not contain the multiplier inverse")
        super().__init__(rank, multiplier, side)

    def to_map(self) -> FreeGroupMap:
        x = self.multiplier
        images = []
        for g in range(1, self.rank + 1):
            if g == abs(x):
                images.append((g,))
                continue
            img: list[int] = []
            if -g in self.side:
                img.append(-x)
            img.append(g)
            if g in self.side:
                img.append(x)
            images.append(tuple(img))
        return FreeGroupMap(self.rank, images)


# ---------------------------------------------------------------------------
# Text syntax

_LOWER = "abcdefghijklmnopqrstuvwxyz"
# Letter-form characters: a-z are the generators 1..26, A-Z their inverses.
_LETTER_OF = {c: i for i, c in enumerate(_LOWER, 1)}
_LETTER_OF |= {c.upper(): -i for c, i in _LETTER_OF.items()}
_CHAR_OF = {x: c for c, x in _LETTER_OF.items()}


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse the word text syntax: letter form or numeric form.

    Letter form maps a-z to generators 1..26 and uppercase to inverses;
    numeric form is whitespace-separated signed integers.  Mixing the two
    forms in one token stream is rejected.  The empty string is the
    trivial word.  The result is NOT freely reduced.
    """
    tokens = text.split()
    if not tokens:
        return ()
    try:
        if all(map(_is_int_token, tokens)):
            letters = tuple(map(int, tokens))
        else:
            letters = tuple(map(_LETTER_OF.__getitem__, "".join(tokens)))
    except (KeyError, ValueError):  # not a letter, or digits int() refuses
        raise ParseError(f"mixed or malformed word syntax: {text!r}") from None
    rank = alphabet.rank
    for x in letters:
        if x == 0:
            raise ParseError("0 is not a letter")
        if not -rank <= x <= rank:
            raise ParseError(f"letter {format_letter(x)!r} outside alphabet of rank {rank}")
    return letters


_LETTER_TABLES: dict[int, dict[str, int]] = {}  # by min(rank, 26)


def _parse_cyclic(text: str, alphabet: Alphabet) -> tuple[CyclicWord | None, int]:
    """``(_cyclic_core(w)[0], len(w))`` for ``w = parse_word(text, alphabet)``.

    A letter-form word is read in one loop, reduced freely as it comes; the
    rank's letter table is the range check.  A character the table lacks
    (a digit, space, comma or other letter) sends ``text`` to ``parse_word``.
    """
    rank = min(alphabet.rank, 26)
    table = _LETTER_TABLES.get(rank)
    if table is None:
        table = _LETTER_TABLES[rank] = {c: x for c, x in _LETTER_OF.items() if abs(x) <= rank}
    out: list[int] = []
    try:
        for c in text:
            x = table[c]
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    except KeyError:
        letters = parse_word(text, alphabet)
        return _cyclic_core(letters)[0], len(letters)
    core = _core(out)
    if not core:
        return None, len(text)
    k = _least_rotation(core)
    return CyclicWord._from_canonical(tuple(core[k:] + core[:k] if k else core)), len(text)


def _within_rank(letters, rank: int) -> bool:
    """Whether every letter is a nonzero int of absolute value at most rank."""
    for x in letters:
        if not isinstance(x, int) or x == 0 or not -rank <= x <= rank:
            return False
    return True


def _is_int_token(token: str) -> bool:
    body = token[1:] if token[0] in "+-" else token
    return body.isdigit()


def format_letter(x: int) -> str:
    """Letter shorthand when the index fits a-z, else a<i>/A<i> labels."""
    if 1 <= abs(x) <= 26:
        c = _LOWER[abs(x) - 1]
        return c if x > 0 else c.upper()
    return f"a{abs(x)}" if x > 0 else f"A{abs(x)}"


def format_word(word) -> str:
    """Render a word: letter shorthand if every index fits, else numeric.

    The empty word renders as ``'1'`` (the group identity).
    """
    word = tuple(word)
    if not word:
        return "1"
    try:
        return "".join(map(_CHAR_OF.__getitem__, word))
    except KeyError:  # an index past z
        return " ".join(map(str, word))
