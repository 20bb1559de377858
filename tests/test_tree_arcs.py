import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from freesplit import arcs, tree
from freesplit.arcs import (
    StarCertificate,
    _certificate,
    _child_counts,
    _lines,
    _star_graph,
    analyze_subtree,
    child_counts,
    class_count_profile,
    edge_arc_count,
    edge_counts,
    enumerate_axes,
    lemma33_certificate,
    star_graph,
)
from freesplit.cli import main
from freesplit.errors import InvalidInputError, ResourceCapError
from freesplit.graphs import Multigraph
from freesplit.tree import TreeBall, build_ball, predicted_vertex_count
from freesplit.whitehead import (
    build_whitehead_graph,
    decide_indecomposable,
    family_from_texts,
)
from freesplit.words import (
    Alphabet,
    CyclicWord,
    cyclic_reduce,
    format_word,
    free_reduce,
    invert_word,
    letter_index,
    total_cyclic_length,
    word_key,
)

import helpers


ALPH2 = Alphabet(2)
ALPH1 = Alphabet(1)


def fam(*texts, rank=2):
    return family_from_texts(Alphabet(rank), texts)


def origin_star(ball):
    return [()] + [(x,) for x in ball.alphabet.letters()]


def reduced_mul(word, letter):
    """Right-multiply a reduced word by one letter, staying reduced."""
    if word and word[-1] == -letter:
        return word[:-1]
    return word + (letter,)


def _reference_axis_through(vertex, rotation, radius):
    """(base, period, trace) of the line through ``vertex`` reading ``rotation`` forward."""
    length = len(rotation)
    v, phase = vertex, 0
    while True:
        fwd = reduced_mul(v, rotation[phase % length])
        if len(fwd) < len(v):
            v, phase = fwd, phase + 1
            continue
        bwd = reduced_mul(v, -rotation[(phase - 1) % length])
        if len(bwd) < len(v):
            v, phase = bwd, phase - 1
            continue
        break
    base = v
    fwd_period = tuple(rotation[(phase + i) % length] for i in range(length))
    period = min(fwd_period, invert_word(fwd_period), key=word_key)
    rays = []
    for direction in (period, invert_word(period)):
        ray, v, i = [], base, 0
        while len(nxt := reduced_mul(v, direction[i % length])) <= radius:
            ray.append(nxt)
            v, i = nxt, i + 1
        rays.append(ray)
    forward, backward = rays
    return base, period, tuple(reversed(backward)) + (base,) + tuple(forward)


def reference_enumerate_axes(family, ball):
    """((base, period), trace) of every line meeting the ball, by the full scan.

    Walks from every ball vertex with every rotation of every family
    word, keeps the first trace found for each line, and sorts by
    (base length, base, period).
    """
    found = {}
    for u in ball.vertices:
        for w in sorted(set(family)):
            for rotation in sorted(w.rotations(), key=word_key):
                base, period, trace = _reference_axis_through(u, rotation, ball.radius)
                found.setdefault((base, period), trace)
    return sorted(
        found.items(),
        key=lambda item: (len(item[0][0]), word_key(item[0][0]), word_key(item[0][1])),
    )


def reference_edge_counts(traces):
    counts = {}
    for t in traces:
        for e in {frozenset((t[i], t[i + 1])) for i in range(len(t) - 1)}:
            counts[e] = counts.get(e, 0) + 1
    return counts


def direction_pairs(ball, family):
    """The {letter in, letter out inverted} pairs of the lines of ``_lines``, by vertex word.

    Each line of a row gives its base the pair of the bit ``rays.origin`` and
    each ray vertex short of the sphere the pair of its bit in ``rays.walk``,
    the letter of lower index first.
    """
    letters = ball.alphabet.letters()
    pairs = {}
    for base_id, last, reach, row in _lines(family, ball):
        for rays in row:
            head, tail = arcs._firsts(base_id, last, rays)
            chunks = [(base_id, rays.origin)]
            for p, e, f, g, b in islice(rays.walk, reach - 1):
                chunks += [(p * head + e, f), (p * tail + g, b)]
            for v, bit in chunks:
                a, b = divmod(bit.bit_length() - 1, len(letters))
                pairs.setdefault(ball.vertices[v], []).append((letters[a], letters[b]))
    return pairs


def reference_direction_pairs(traces):
    """Per trace vertex v between u and w, the letters of the edges u -> v and w -> v."""
    pairs = {}
    for t in traces:
        for u, v, w in zip(t, t[1:], t[2:]):
            # the letter of the tree edge u -> v is u^-1 v, a single letter
            (d_in,) = free_reduce(invert_word(u) + v)
            (d_out,) = free_reduce(invert_word(w) + v)
            pairs.setdefault(v, []).append((d_in, d_out))
    return pairs


def reference_lemma33_certificate(ball, traces):
    """The all-stars check with one ``Multigraph`` per interior vertex."""
    pairs = reference_direction_pairs(traces)
    for v in ball.vertices:
        if len(v) <= ball.radius - 1:
            star = Multigraph(ball.alphabet.letters(), allow_loops=False)
            for d_in, d_out in pairs.get(v, ()):
                star.add_edge(d_in, d_out)
            if not star.is_two_vertex_connected()[0]:
                return StarCertificate(False, v)
    return StarCertificate(True, None)


def reference_class_count_profile(alphabet, family, max_radius):
    """Class counts per radius, with a {word: index} union-find per sphere."""
    ball = build_ball(alphabet, max_radius)
    axes = enumerate_axes(family, ball)
    profile = []
    for radius in range(1, max_radius + 1):
        sphere = [v for v in ball.vertices if len(v) == radius]
        index = {v: i for i, v in enumerate(sphere)}
        parent = list(range(len(sphere)))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for axis in axes:
            if len(axis.base) < radius:
                a, b = (find(index[v]) for v in axis.trace if len(v) == radius)
                parent[a] = b
        profile.append((radius, sum(1 for i in range(len(sphere)) if find(i) == i)))
    return tuple(profile)


def mixed_radix_id(word, letters):
    """The sphere offset plus the mixed-radix number of a reduced word.

    The first letter is one of 2n digits, each later one of the 2n - 1
    letters other than the inverse of the letter before.
    """
    if not word:
        return 0
    number = letters.index(word[0])
    for prev, x in zip(word, word[1:]):
        number = number * (len(letters) - 1) + [y for y in letters if y != -prev].index(x)
    return predicted_vertex_count(len(letters) // 2, len(word) - 1) + number


# Families whose interior stars are all 2-connected
FILLING = {1: [("a",), ("aa",)], 2: [("abAB",), ("aabb",), ("abaB",)],
           3: [("aabbcc",), ("abAB", "bcBC")], 4: [("aabbccdd",), ("abAB", "bcBC", "cdCD")]}


@st.composite
def route_corpus(draw):
    """Rank 1-3, radius 2-5, and a certified or random family, either
    possibly with a proper power of one of its words added."""
    rank = draw(st.integers(min_value=1, max_value=3))
    alphabet = Alphabet(rank)
    if draw(st.booleans()):
        family = list(fam(*draw(st.sampled_from(FILLING[rank])), rank=rank))
    else:
        words = draw(st.lists(st.lists(st.sampled_from(alphabet.letters()), max_size=4),
                              min_size=1, max_size=3))
        family = [core for core, _ in map(cyclic_reduce, words) if core is not None]
        family = family or [CyclicWord((rank,))]
    if draw(st.booleans()):
        family.append(CyclicWord(draw(st.sampled_from(family)).letters * 2))
    return alphabet, draw(st.integers(min_value=2, max_value=5)), tuple(family)


@st.composite
def axis_corpus(draw):
    """A ball of rank 1-3 and radius 0-4 with a family that may hold a proper
    power, a word beside its inverse, and a conjugate of another member."""
    rank = draw(st.integers(min_value=1, max_value=3))
    letters = Alphabet(rank).letters()
    words = draw(st.lists(st.lists(st.sampled_from(letters), max_size=4), min_size=1, max_size=3))
    family = [core for core, _ in map(cyclic_reduce, words) if core is not None]
    if not family:
        family = [CyclicWord((rank,))]
    pick = st.sampled_from(family)
    if draw(st.booleans()):
        w = draw(pick)
        family.append(CyclicWord(w.letters * draw(st.integers(min_value=2, max_value=3))))
    if draw(st.booleans()):
        family.append(draw(pick).inverse())
    if draw(st.booleans()):
        w = draw(pick)
        k = draw(st.integers(min_value=0, max_value=len(w) - 1))
        family.append(CyclicWord(w.letters[k:] + w.letters[:k]))
    family = draw(st.permutations(family))
    return build_ball(Alphabet(rank), draw(st.integers(min_value=0, max_value=4))), tuple(family)


@st.composite
def row_corpus(draw):
    """A ball of rank 1-4 and radius 2-5 (2-4 at rank 4, past 20,000 vertices
    at 5) with a certified or random family that may hold a proper power,
    and a random source for picking and shuffling its lines."""
    rank = draw(st.integers(min_value=1, max_value=4))
    letters = Alphabet(rank).letters()
    if draw(st.booleans()):
        family = list(fam(*draw(st.sampled_from(FILLING[rank])), rank=rank))
    else:
        words = draw(st.lists(st.lists(st.sampled_from(letters), max_size=4),
                              min_size=1, max_size=3))
        family = [core for core, _ in map(cyclic_reduce, words) if core is not None]
        family = family or [CyclicWord((rank,))]
    if draw(st.booleans()):
        family.append(CyclicWord(draw(st.sampled_from(family)).letters * 2))
    radius = draw(st.integers(min_value=2, max_value=5 if rank < 4 else 4))
    return build_ball(Alphabet(rank), radius), tuple(family), draw(st.randoms())


class TestBall:
    def test_rank2_radius1(self):
        ball = build_ball(ALPH2, 1)
        assert ball.vertex_count() == 5 and ball.edge_count() == 4

    def test_rank2_radius2(self):
        ball = build_ball(ALPH2, 2)
        assert ball.vertex_count() == 17 and ball.edge_count() == 16

    def test_rank1_is_a_line(self):
        ball = build_ball(ALPH1, 3)
        assert ball.vertex_count() == 7
        # every vertex has at most two neighbours: its parent and its children
        degrees = [0] * ball.vertex_count()
        for v, p in enumerate(ball.parents(), 1):
            degrees[v] += 1
            degrees[p] += 1
        assert max(degrees) <= 2

    def test_closed_form(self):
        for rank in (1, 2, 3):
            for radius in range(0, 4):
                ball = build_ball(Alphabet(rank), radius)
                assert ball.vertex_count() == predicted_vertex_count(rank, radius)
                assert ball.edge_count() == ball.vertex_count() - 1
        with pytest.raises(InvalidInputError, match="radius must be >= 0, got -1"):
            predicted_vertex_count(2, -1)

    def test_cap_refusal(self):
        with pytest.raises(ResourceCapError) as info:
            build_ball(ALPH2, 20)
        assert info.value.predicted == predicted_vertex_count(2, 20)

    def test_size_refusal_around_the_cut_off(self):
        # radii 37-63 hold the "more than" boundary (rank 2, radius 38) and
        # the bit-length cut-off (rank 3, radius 30; rank 27, radius 11)
        for rank in (1, 2, 3, 27, 10**30):
            alphabet = Alphabet(rank)
            for radius in range(-1, 70):
                for cap in (0, 10, 2_000_000, 10**18, 10**18 + 1, 10**30):
                    if radius < 0:
                        with pytest.raises(InvalidInputError, match="radius must be >= 0, got -1"):
                            build_ball(alphabet, radius, cap)
                        continue
                    count, bound = predicted_vertex_count(rank, radius), max(cap, 10**18)
                    if count <= cap and 2 * rank <= cap:
                        assert build_ball(alphabet, radius, cap).vertex_count() == count
                        continue
                    with pytest.raises(ResourceCapError) as info:
                        build_ball(alphabet, radius, cap)
                    if count > cap:
                        size = count if count <= bound else f"more than {bound}"
                        assert info.value.predicted == (count if count <= bound else None)
                        assert str(info.value) == (f"ball of rank {rank}, radius {radius} has"
                                                   f" {size} vertices (cap {cap})")
                    else:
                        assert info.value.predicted == 2 * rank

    def test_no_closed_form_past_the_cut_off(self, monkeypatch):
        def refuse(rank, radius):
            raise AssertionError(f"closed form computed at rank {rank}, radius {radius}")

        monkeypatch.setattr(tree, "predicted_vertex_count", refuse)
        for rank, radius in ((2, 60), (3, 30), (2, 10**30), (10**300, 1)):
            with pytest.raises(ResourceCapError) as info:
                build_ball(Alphabet(rank), radius)
            assert info.value.predicted is None

    def test_letters_count_against_the_cap(self):
        # a radius-0 ball has one vertex, but its per-letter tables take 2n entries
        assert build_ball(Alphabet(5), 0, cap=10).vertex_count() == 1
        with pytest.raises(ResourceCapError) as info:
            build_ball(Alphabet(5), 0, cap=9)
        assert str(info.value) == "ball of rank 5 has 10 letters (cap 9)"
        assert (info.value.predicted, info.value.cap) == (10, 9)

    def test_child_table_only_past_the_first_sphere(self):
        # the (2n)(2n - 1) table would be 4 million entries at rank 1,000
        ball = build_ball(Alphabet(1000), 1)
        tracemalloc.start()
        try:
            levels = list(ball.levels())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert levels == [[-1], list(range(2000))]
        assert peak < 10**6
        assert list(build_ball(ALPH2, 2).levels())[2] == [0, 2, 3, 1, 2, 3, 0, 1, 2, 0, 1, 3]

    def test_vertices_in_length_then_word_key_order(self):
        # enumerate_axes relies on this order to emit axes already sorted
        for rank in (1, 2, 3):
            for radius in range(0, 5):
                vertices = build_ball(Alphabet(rank), radius).vertices
                assert list(vertices) == sorted(vertices, key=lambda v: (len(v), word_key(v)))

    def test_ids_are_positions(self):
        for rank in (1, 2, 3):
            alphabet = Alphabet(rank)
            letters = list(alphabet.letters())
            for radius in range(0, 7):
                ball = build_ball(alphabet, radius)
                labels, parents = ball.labels(), [None] + ball.parents()
                for position, v in enumerate(ball.vertices):
                    assert mixed_radix_id(v, letters) == position == ball.index(v)
                    assert labels[position] == format_word(v)
                    if v:
                        assert ball.vertices[parents[position]] == v[:-1]

    def test_labels_past_the_letter_form(self):
        # a letter past z makes the whole word numeric, from that letter on
        ball = build_ball(Alphabet(27), 2)
        labels = ball.labels()
        assert labels == [format_word(v) for v in ball.vertices]
        assert {labels[ball.index(w)] for w in [(1, 27), (27, 1), (-27, -27), (26, 2)]} == {
            "1 27", "27 1", "-27 -27", "zb"}

    def test_membership_of_colliding_words(self):
        # hash(-1) == hash(-2), so a set of words cannot tell these apart
        ball = build_ball(ALPH2, 4)
        for k in range(1, 7):
            assert ((-1,) * k in ball) == ((-2,) * k in ball) == (k <= 4)
            if k <= 4:
                assert ball.vertices[ball.index((-1,) * k)] == (-1,) * k
                assert ball.vertices[ball.index((-2,) * k)] == (-2,) * k
        assert (-1, -2, -1, -2) in ball and (-2, -1, -2, -1) in ball
        for word in [(-1, 1), (-2, 2), (-1, -2, 2), (0,), (3,), ("a",), (-1,) * 5]:
            assert word not in ball and ball.index(word) is None
        line = build_ball(ALPH1, 4)
        assert (-1,) * 4 in line and (-2,) not in line and (-2,) * 3 not in line


class TestVertexDecoder:
    """``ball.vertices`` decodes words from ids, against the breadth-first reference."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 27])
    def test_matches_the_reference(self, rank):
        alphabet = Alphabet(rank)
        letters = list(alphabet.letters())
        for radius in range(7):
            count = predicted_vertex_count(rank, radius)
            small = count <= 30_000
            # rank 27 from radius 4 is past the vertex budget: make the ball directly
            ball = build_ball(alphabet, radius) if small else TreeBall(alphabet, radius)
            vertices = ball.vertices
            assert len(vertices) == count
            for i in (count, -count - 1, count + 5):
                with pytest.raises(IndexError):
                    vertices[i]
            if not small:
                # rank 27 from radius 3: the first and last id of each sphere,
                # against the mixed-radix rule, since the reference list is too long
                for k in range(radius + 1):
                    for i in (ball.offsets[k], ball.offsets[k + 1] - 1):
                        word = vertices[i]
                        assert len(word) == k
                        assert mixed_radix_id(word, letters) == i == ball.index(word)
                        assert vertices[i - count] == word
                continue
            reference = helpers._ball_vertices(letters, radius)
            assert [vertices[i] for i in range(count)] == reference
            assert [vertices[-i] for i in range(1, count + 1)] == reference[::-1]
            assert list(vertices) == reference
            for window in (slice(None), slice(1, None), slice(None, None, -1), slice(2, -1, 3),
                           slice(-4, None), slice(count, count + 3)):
                assert vertices[window] == tuple(reference[window])
            assert all(ball.index(vertices[i]) == i for i in range(count))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_trace_words_and_ids_agree(self, rank):
        rng = random.Random(77 + rank)
        for radius in range(6):
            ball = build_ball(Alphabet(rank), radius)
            for axis in enumerate_axes(helpers.random_clean_family(rng, rank, 2, 6), ball):
                trace = axis.trace
                assert trace[len(trace) // 2] == axis.base == ball.vertices[axis.base_id]
                assert tuple(ball.vertices[v] for v in arcs._trace_ids(axis.line)) == trace

    def test_rank_one_trace_is_the_whole_line(self):
        # the far end A^2000 down to the root, then out to a^2000
        (axis,) = enumerate_axes([CyclicWord((1,))], build_ball(Alphabet(1), 2000))
        line = tuple((-1,) * k for k in range(2000, 0, -1)) + tuple((1,) * k for k in range(2001))
        assert axis.trace == line

    def test_ball_builds_no_words(self):
        tracemalloc.start()
        try:
            ball = build_ball(ALPH2, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ball.vertex_count() == 118_097
        assert peak < 1_000_000

    def test_rank_one_rays_grow_linearly(self):
        # one walk per period and base letter class, read up to each line's
        # reach: a walk per reach would take about 50 MB at this radius
        family = [CyclicWord((1,))]
        tracemalloc.start()
        try:
            profile = class_count_profile(Alphabet(1), family, 2000)
            ball = build_ball(Alphabet(1), 2000)
            cert = _certificate(ball, _lines(family, ball))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile == tuple((r, 1) for r in range(1, 2001))
        assert cert == StarCertificate(True, None)
        assert peak < 5_000_000


class TestEnumerateAxes:
    @settings(max_examples=60, deadline=None)
    @given(axis_corpus())
    def test_matches_full_scan(self, corpus):
        ball, family = corpus
        axes = enumerate_axes(family, ball)
        reference = reference_enumerate_axes(family, ball)
        assert [(a.base, a.period) for a in axes] == [key for key, _ in reference]
        assert [a.trace for a in axes] == [trace for _, trace in reference]
        traces = [trace for _, trace in reference]
        assert edge_counts(axes) == reference_edge_counts(traces)
        # a pair's bit is the same whichever way its line passes
        assert direction_pairs(ball, family) == {
            v: [tuple(sorted(pair, key=letter_index)) for pair in pairs]
            for v, pairs in reference_direction_pairs(traces).items()}

    @pytest.mark.parametrize("rank, texts", [(6, ["ab"]), (8, ["aab", "c"]), (5, ["abAB", "E"])])
    def test_letters_that_no_ray_cancels(self, rank, texts):
        # most letters start no ray here, so their rows keep every period
        ball = build_ball(Alphabet(rank), 2)
        family = fam(*texts, rank=rank)
        reference = reference_enumerate_axes(family, ball)
        assert [(a.base, a.period) for a in enumerate_axes(family, ball)] == [
            key for key, _ in reference]

    def test_powers_and_inverses(self):
        # abab keeps its own period beside ab; BA shares ab's lines
        ball = build_ball(ALPH2, 2)
        family = fam("abab", "ab", "BA")
        axes = enumerate_axes(family, ball)
        reference = reference_enumerate_axes(family, ball)
        assert [(a.base, a.period) for a in axes] == [key for key, _ in reference]
        assert {a.period for a in axes if a.base == ()} == {
            (1, 2), (1, 2, 1, 2), (-1, -2), (-1, -2, -1, -2)
        }
        assert axes == enumerate_axes(fam("abab", "ab"), ball)

    def test_single_letter_radius2(self):
        # one axis per coset with a representative of length <= 2 that
        # does not end in a or a^-1
        axes = enumerate_axes(fam("a"), build_ball(ALPH2, 2))
        assert len(axes) == 9
        assert len(axes) == helpers.oracle_axis_count(fam("a"), 2, 2)

    def test_commutator_through_origin(self):
        # four distinct lines pass the origin, one per rotation
        axes = enumerate_axes(fam("abAB"), build_ball(ALPH2, 0))
        assert len(axes) == 4
        assert len(axes) == helpers.oracle_axis_count(fam("abAB"), 2, 0)
        assert all(a.base == () for a in axes)

    def test_rank1_whole_line(self):
        axes = enumerate_axes(fam("a", rank=1), build_ball(ALPH1, 4))
        assert len(axes) == 1

    def test_axis_shape_invariants(self):
        rng = random.Random(73)
        for _ in range(25):
            rank = rng.randint(1, 3)
            family = helpers.random_clean_family(rng, rank, 2, 6)
            ball = build_ball(Alphabet(rank), 3)
            for axis in enumerate_axes(family, ball):
                # base is the nearest trace vertex to the origin and unique
                lengths = [len(v) for v in axis.trace]
                assert min(lengths) == len(axis.base)
                assert lengths.count(len(axis.base)) == 1
                # trace is a path of tree edges inside the ball
                for u, v in zip(axis.trace, axis.trace[1:]):
                    assert len(free_reduce(invert_word(u) + v)) == 1
                    assert u in ball and v in ball
                # period is a rotation of a family word or of its inverse
                rotations = set()
                for w in family:
                    rotations |= set(w.rotations())
                    rotations |= set(w.inverse().rotations())
                assert axis.period in rotations
                # period direction is the lexicographically smaller one
                assert axis.period == min(
                    axis.period, invert_word(axis.period),
                    key=lambda p: [(abs(x), 0 if x > 0 else 1) for x in p],
                )

    def test_oracle_agreement_random(self):
        rng = random.Random(79)
        for _ in range(15):
            rank = rng.randint(2, 3)
            family = helpers.random_clean_family(rng, rank, 2, 5)
            radius = rng.randint(1, 2)
            ball = build_ball(Alphabet(rank), radius)
            assert len(enumerate_axes(family, ball)) == helpers.oracle_axis_count(
                family, rank, radius
            )

    def test_rejects_bad_family(self):
        with pytest.raises(InvalidInputError):
            enumerate_axes([(1,)], build_ball(ALPH2, 1))


class TestEdgeCounts:
    def test_spec_examples(self):
        ball = build_ball(ALPH2, 3)
        axes_a = enumerate_axes(fam("a"), ball)
        axes_c = enumerate_axes(fam("abAB"), ball)
        assert edge_arc_count(((), (1,)), axes_a) == 1
        assert edge_arc_count(((), (1,)), axes_c) == 2
        assert edge_arc_count(((), (2,)), axes_a) == 0

    def test_matches_oracle(self):
        rng = random.Random(83)
        ball = build_ball(ALPH2, 2)
        for _ in range(10):
            family = helpers.random_clean_family(rng, 2, 2, 5)
            axes = enumerate_axes(family, ball)
            for edge in [((), (1,)), ((), (-2,)), ((1,), (1, 2))]:
                assert edge_arc_count(edge, axes) == helpers.oracle_edge_count(
                    family, 2, edge
                )

    def test_bulk_counts_match_single(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("abAB"), ball)
        counts = edge_counts(axes)
        for u, v in helpers.edges(ball):
            assert counts.get(frozenset((u, v)), 0) == edge_arc_count((u, v), axes)

    def test_stability_under_radius_growth(self):
        # every axis through an edge is already found at the small radius
        rng = random.Random(89)
        for _ in range(8):
            family = helpers.random_clean_family(rng, 2, 1, 5)
            small = build_ball(ALPH2, 3)
            large = build_ball(ALPH2, 5)
            counts_small = edge_counts(enumerate_axes(family, small))
            counts_large = edge_counts(enumerate_axes(family, large))
            for u, v in helpers.interior_edges(small):
                key = frozenset((u, v))
                assert counts_small.get(key, 0) == counts_large.get(key, 0)


class TestStarGraphs:
    def test_star_equals_whitehead_graph(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("abAB"), ball)
        star = star_graph(ball, axes, ())
        word = build_whitehead_graph(ALPH2, fam("abAB"))
        assert star.edges() == word.edges()

    def test_star_random_families(self):
        rng = random.Random(97)
        for _ in range(30):
            rank = rng.randint(2, 3)
            family = helpers.random_clean_family(rng, rank, 3, 8)
            alphabet = Alphabet(rank)
            ball = build_ball(alphabet, 2)
            axes = enumerate_axes(family, ball)
            star = star_graph(ball, axes, ())
            word = build_whitehead_graph(alphabet, family)
            assert star.edges() == word.edges(), family

    def test_every_interior_star_matches_the_traces(self):
        rng = random.Random(101)
        for _ in range(12):
            rank = rng.randint(1, 3)
            family = helpers.random_family(rng, rank, 3, 6)
            ball = build_ball(Alphabet(rank), 3)
            axes = enumerate_axes(family, ball)
            pairs = reference_direction_pairs([a.trace for a in axes])
            for center in ball.vertices[:ball.offsets[ball.radius]]:
                star = Multigraph(ball.alphabet.letters(), allow_loops=False)
                for d_in, d_out in pairs.get(center, ()):
                    star.add_edge(d_in, d_out)
                assert star_graph(ball, axes, center).edges() == star.edges(), (family, center)

    def test_star_requires_interior_center(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("a"), ball)
        with pytest.raises(InvalidInputError):
            star_graph(ball, axes, (1, 1))

    @pytest.mark.parametrize("center", [(5,), (1, -1), ("x",), (0,)])
    def test_star_refuses_a_center_that_is_not_a_vertex(self, center):
        ball = build_ball(ALPH2, 3)
        axes = enumerate_axes(fam("abAB"), ball)
        with pytest.raises(InvalidInputError):
            star_graph(ball, axes, center)
        with pytest.raises(InvalidInputError):
            _star_graph(ball, _lines(fam("abAB"), ball), center)


class TestCertificate:
    def test_commutator_certified(self):
        ball = build_ball(ALPH2, 3)
        cert = lemma33_certificate(ball, enumerate_axes(fam("abAB"), ball))
        assert cert.certified and cert.witness is None

    def test_single_letter_not_certified_at_origin(self):
        ball = build_ball(ALPH2, 3)
        cert = lemma33_certificate(ball, enumerate_axes(fam("a"), ball))
        assert not cert.certified and cert.witness == ()
        assert not cert and lemma33_certificate(ball, enumerate_axes(fam("abAB"), ball))

    def test_rank1_certified_by_single_edge_convention(self):
        ball = build_ball(ALPH1, 3)
        cert = lemma33_certificate(ball, enumerate_axes(fam("a", rank=1), ball))
        assert cert.certified

    def test_radius_too_small(self):
        ball = build_ball(ALPH2, 1)
        with pytest.raises(InvalidInputError):
            lemma33_certificate(ball, enumerate_axes(fam("a"), ball))

    def test_certified_implies_interior_edges_covered_twice(self):
        rng = random.Random(103)
        hits = 0
        for _ in range(25):
            rank = rng.randint(2, 3)
            family = helpers.random_clean_family(rng, rank, 2, 6)
            ball = build_ball(Alphabet(rank), 3)
            axes = enumerate_axes(family, ball)
            if not lemma33_certificate(ball, axes).certified:
                continue
            hits += 1
            counts = edge_counts(axes)
            for u, v in helpers.interior_edges(ball):
                assert counts.get(frozenset((u, v)), 0) >= 2
        assert hits >= 3


class TestAxesOfAnotherBall:
    """Axes carry the ball they were traced in; another ball's ids do not fit."""

    @pytest.mark.parametrize("traced, given_radius, rank", [(5, 3, 2), (3, 5, 2), (3, 3, 3)])
    def test_refused(self, traced, given_radius, rank):
        family = fam("abAB")
        axes = enumerate_axes(family, build_ball(ALPH2, traced))
        ball = build_ball(Alphabet(rank), given_radius)
        for call in (lambda: lemma33_certificate(ball, axes),
                     lambda: child_counts(ball, axes),
                     lambda: star_graph(ball, axes, ())):
            with pytest.raises(InvalidInputError):
                call()

    def test_mixed_axes_refused(self):
        family = fam("abAB")
        axes = enumerate_axes(family, build_ball(ALPH2, 3)) + enumerate_axes(
            family, build_ball(ALPH2, 4))
        with pytest.raises(InvalidInputError):
            edge_counts(axes)
        with pytest.raises(InvalidInputError):
            edge_arc_count(((), (1,)), axes)

    def test_equal_balls_agree(self):
        # a second ball of the same rank and radius has the same ids
        family = fam("abAB")
        ball, twin = build_ball(ALPH2, 4), build_ball(ALPH2, 4)
        axes = enumerate_axes(family, twin)
        assert lemma33_certificate(ball, axes) == lemma33_certificate(twin, axes)
        assert child_counts(ball, axes) == child_counts(twin, axes)


class TestLineStream:
    """The streamed functions the CLI runs, against the axes and the references."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_matches_axes_and_references(self, rank):
        rng = random.Random(139 + rank)
        alphabet = Alphabet(rank)
        for radius in range(8):
            for _ in range(2):
                family = helpers.random_clean_family(rng, rank, 2, 6)
                ball = build_ball(alphabet, radius)
                axes = enumerate_axes(family, ball)
                # the word-keyed references walk every trace; keep them to small balls
                traces = [a.trace for a in axes] if ball.vertex_count() <= 5000 else None
                counts = _child_counts(ball, _lines(family, ball))
                assert counts == child_counts(ball, axes)
                if traces is not None:
                    assert {frozenset((ball.vertices[v][:-1], ball.vertices[v])): n
                            for v, n in enumerate(counts) if n} == reference_edge_counts(traces)
                if radius < 2:
                    with pytest.raises(InvalidInputError):
                        _certificate(ball, _lines(family, ball))
                    continue
                cert = _certificate(ball, _lines(family, ball))
                assert cert == lemma33_certificate(ball, axes)
                assert _star_graph(ball, _lines(family, ball), ()).edges() == \
                    star_graph(ball, axes, ()).edges()
                if traces is not None:
                    assert cert == reference_lemma33_certificate(ball, traces)
                    assert class_count_profile(alphabet, family, radius) == \
                        reference_class_count_profile(alphabet, family, radius)

    def test_lines_skip_the_sphere(self):
        ball = build_ball(ALPH2, 4)
        family = fam("abAB", "aab")
        inner = [(*line[:3], rays.period) for line in _lines(family, ball) for rays in line[3]]
        every = [(*line[:3], rays.period)
                 for line in _lines(family, ball, sphere=True) for rays in line[3]]
        assert inner == [line for line in every if line[2] > 0]
        assert len(every) == len(enumerate_axes(family, ball))
        sphere = [v for v, _, reach, _ in every if not reach]
        assert set(sphere) == set(range(ball.offsets[ball.radius], ball.vertex_count()))

    @staticmethod
    def streamed(ball, lines, center):
        """The certificate, counts, star of ``center`` and profile of the lines."""
        lines = list(lines)
        return (_certificate(ball, lines), _child_counts(ball, lines),
                _star_graph(ball, lines, center).edges(), arcs._class_counts(ball, lines))

    @settings(max_examples=40, deadline=None)
    @given(row_corpus())
    def test_rows_match_one_ray_rows(self, corpus):
        # each row's origin mask is computed once, keyed by the row; the
        # one-ray rows of axes are built per axis and dropped, so a mask kept
        # by anything but the row's contents would read another row's
        ball, family, rng = corpus
        rows = list(_lines(family, ball))
        axes = enumerate_axes(family, ball)
        center = ball.vertices[rng.randrange(ball.offsets[ball.radius - 1])]
        profile = class_count_profile(ball.alphabet, family, ball.radius)
        assert arcs._class_counts(ball, rows) == profile
        keep = {(a.base_id, a.period) for a in axes if rng.random() < 0.5}
        subset = [(v, last, reach, tuple(r for r in row if (v, r.period) in keep))
                  for v, last, reach, row in rows]
        chosen = [a for a in axes if (a.base_id, a.period) in keep]
        for lines, some in [(rows, axes), (subset, chosen)]:
            want = self.streamed(ball, lines, center)
            for order in [some, rng.sample(some, len(some))]:
                assert want == (lemma33_certificate(ball, order), child_counts(ball, order),
                                star_graph(ball, order, center).edges(),
                                arcs._class_counts(ball, arcs._axis_lines(ball, order)))

    def test_rays_do_not_grow_with_the_rank(self):
        # one walk per period, as long as the radius: a table per base letter
        # would hold 600,001 entries here (the period is a, whose star bits,
        # unlike those of later letters, are small ints)
        ball = build_ball(Alphabet(300_000), 1)
        tracemalloc.start()
        try:
            rays = arcs._Rays((1,), ball)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert len(rays.walk) == 1

    def test_cli_builds_no_axis(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("an Axis was built")

        monkeypatch.setattr(arcs.Axis, "__init__", refuse)
        for argv, out in [
            (["certificate", "--radius", "5"], "CERTIFIED\n"),
            (["profile", "--max-radius", "4"], "".join(f"radius {r}: 1\n" for r in range(1, 5))),
            (["counts", "--radius", "2"], None),
            (["star", "--radius", "2"], None),
            (["axes", "--radius", "3"], None),
            (["axes", "--radius", "3", "--format", "json"], None),
        ]:
            code = main(["tree", argv[0], "--rank", "2", "abAB", *argv[1:]])
            captured = capsys.readouterr()
            assert code == 0 and captured.err == "", argv
            assert out is None or captured.out == out


class TestAnalyzeSubtree:
    def test_commutator_star_analysis(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("abAB"), ball)
        analysis = analyze_subtree(ball, origin_star(ball), axes)
        # G(S) of the origin star is the 4-cycle on the neighbour vertices
        assert analysis.gs_graph.total_edges() == 4
        assert analysis.gs_graph.is_two_vertex_connected()[0]
        assert analysis.classes == (
            frozenset({(1,), (-1,), (2,), (-2,)}),
        )
        assert analysis.carriers == frozenset({(1,), (-1,), (2,), (-2,)})

    def test_single_letter_star_analysis(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("a"), ball)
        analysis = analyze_subtree(ball, origin_star(ball), axes)
        assert set(analysis.classes) == {
            frozenset({(1,), (-1,)}),
            frozenset({(2,)}),
            frozenset({(-2,)}),
        }

    def test_single_vertex_subtree(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("abAB"), ball)
        analysis = analyze_subtree(ball, [()], axes)
        assert analysis.classes == (frozenset({()}),)
        assert analysis.intervals == ()
        assert analysis.gs_graph.vertices == ()

    def test_interval_endpoints_are_carriers(self):
        rng = random.Random(107)
        ball = build_ball(ALPH2, 3)
        for _ in range(10):
            family = helpers.random_clean_family(rng, 2, 2, 6)
            axes = enumerate_axes(family, ball)
            subtree = [(), (1,), (2,), (1, 2)]
            analysis = analyze_subtree(ball, subtree, axes)
            for interval in analysis.intervals:
                p, q = interval.endpoints
                assert p in analysis.carriers and q in analysis.carriers
                assert p != q
                # the interval path really is the trace restricted to S
                assert set(interval.path) <= analysis.subtree
                assert len(interval.path) >= 2

    def test_classes_refine_gs_components(self):
        # the two views of the subpartition: gluing-graph components are
        # exactly the non-singleton classes restricted to endpoints
        rng = random.Random(109)
        ball = build_ball(ALPH2, 3)
        for _ in range(10):
            family = helpers.random_clean_family(rng, 2, 2, 6)
            axes = enumerate_axes(family, ball)
            analysis = analyze_subtree(ball, origin_star(ball), axes)
            gs_components = set(analysis.gs_graph.components())
            touched = {c for c in analysis.classes if len(c) > 1}
            untouched = {c for c in analysis.classes if len(c) == 1}
            assert gs_components == touched | {
                c for c in untouched if set(c) <= set(analysis.gs_graph.vertices)
            }

    def test_matches_networkx_on_random_vertex_sets(self):
        # connectivity, carriers and classes against networkx on the ball's
        # tree: sets grown along tree edges, and random sets that are mostly
        # disconnected
        import networkx as nx

        rng = random.Random(113)
        ball = build_ball(ALPH2, 4)
        interior = [v for v in ball.vertices if len(v) <= 3]
        tree_graph = nx.Graph((v, v[:-1]) for v in ball.vertices if v)
        order = {v: i for i, v in enumerate(ball.vertices)}
        connected_sets = 0
        for trial in range(120):
            axes = enumerate_axes(helpers.random_clean_family(rng, 2, 2, 6), ball)
            if trial % 2:
                subtree = set(rng.sample(interior, rng.randint(1, 5)))
            else:
                subtree = {rng.choice(interior)}
                for _ in range(rng.randint(0, 15)):
                    v = rng.choice(sorted(subtree, key=order.get))
                    subtree.add(rng.choice([w for w in tree_graph[v] if len(w) <= 3]))
            if not nx.is_connected(tree_graph.subgraph(subtree)):
                with pytest.raises(InvalidInputError, match="not connected"):
                    analyze_subtree(ball, subtree, axes)
                continue
            connected_sets += 1
            analysis = analyze_subtree(ball, subtree, axes)
            carriers = sorted((v for v in subtree if set(tree_graph[v]) - subtree), key=order.get)
            assert analysis.carriers == frozenset(carriers)
            glue = nx.Graph()
            glue.add_nodes_from(carriers)
            for axis in axes:
                inside = [v for v in axis.trace if v in subtree]
                if len(inside) >= 2:
                    glue.add_edge(inside[0], inside[-1])
            expected = sorted(nx.connected_components(glue), key=lambda c: min(map(order.get, c)))
            assert analysis.classes == tuple(map(frozenset, expected))
        assert 20 <= connected_sets <= 100

    def test_rejects_disconnected_subtree(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("a"), ball)
        with pytest.raises(InvalidInputError):
            analyze_subtree(ball, [(1,), (2,)], axes)

    def test_rejects_boundary_subtree(self):
        ball = build_ball(ALPH2, 2)
        axes = enumerate_axes(fam("a"), ball)
        with pytest.raises(InvalidInputError):
            analyze_subtree(ball, [(), (1,), (1, 1)], axes)


class TestClassCountProfile:
    def test_commutator_all_ones(self):
        assert class_count_profile(ALPH2, fam("abAB"), 4) == (
            (1, 1), (2, 1), (3, 1), (4, 1),
        )

    def test_single_letter_splits_immediately(self):
        profile = class_count_profile(ALPH2, fam("a"), 3)
        assert all(count >= 2 for _, count in profile)
        assert profile[0] == (1, 3)

    def test_rank1_all_ones(self):
        assert class_count_profile(ALPH1, fam("a", rank=1), 3) == (
            (1, 1), (2, 1), (3, 1),
        )

    def test_matches_oracle(self):
        rng = random.Random(113)
        for _ in range(8):
            family = helpers.random_clean_family(rng, 2, 2, 5)
            profile = class_count_profile(ALPH2, family, 3)
            for radius, count in profile:
                assert count == helpers.oracle_class_count(family, 2, radius)

    def test_monotone_in_radius(self):
        rng = random.Random(127)
        for _ in range(12):
            rank = rng.randint(1, 3)
            family = helpers.random_family(rng, rank, 2, 6)
            profile = class_count_profile(Alphabet(rank), family, 3)
            counts = [c for _, c in profile]
            assert counts == sorted(counts)

    def test_requires_positive_radius(self):
        with pytest.raises(InvalidInputError):
            class_count_profile(ALPH2, fam("a"), 0)


class TestReferenceRoute:
    """The id route against the word-keyed star loop and profile it replaced."""

    @staticmethod
    def agree(alphabet, radius, family):
        ball = build_ball(alphabet, radius)
        axes = enumerate_axes(family, ball)
        traces = [a.trace for a in axes]
        cert = lemma33_certificate(ball, axes)
        assert cert == reference_lemma33_certificate(ball, traces)
        counts = reference_edge_counts(traces)
        assert edge_counts(axes) == counts
        for edge in list(helpers.edges(ball))[:5]:
            assert edge_arc_count(edge, axes) == counts.get(frozenset(edge), 0)
        assert class_count_profile(alphabet, family, radius) == \
            reference_class_count_profile(alphabet, family, radius)
        return cert.certified

    @settings(max_examples=40, deadline=None)
    @given(route_corpus())
    def test_matches_references(self, corpus):
        self.agree(*corpus)

    def test_certified_and_not(self):
        for rank, families in FILLING.items():
            for texts in families:
                family = fam(*texts, rank=rank)
                assert self.agree(Alphabet(rank), 4, family)
                assert self.agree(Alphabet(rank), 3, family + (CyclicWord(family[0].letters * 2),))
        assert not self.agree(ALPH2, 4, fam("a"))
        assert not self.agree(Alphabet(3), 3, fam("abcABC", rank=3))
        assert not self.agree(ALPH2, 3, fam("abab", "a"))

    def test_letters_past_64_bits(self):
        # at rank 8 the pair codes run to 255, past one machine word
        assert self.agree(Alphabet(8), 2, fam("abABcdCDefEFghGH", rank=8))
        assert not self.agree(Alphabet(8), 2, fam("abABcdCDefEFgh", rank=8))

    def test_certificate_memory_at_high_rank(self):
        # rank 150, radius 2: 90,001 vertices; the stars use the top letters
        rank = 150
        ball = build_ball(Alphabet(rank), 2)
        family = (CyclicWord((rank, 1 - rank, 1)), CyclicWord((2, rank)))
        axes = enumerate_axes(family, ball)
        tracemalloc.start()
        try:
            cert = lemma33_certificate(ball, axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert == StarCertificate(False, ())
        assert peak < 20_000_000


class TestDecisionCoherence:
    def test_certificate_never_contradicts_profile(self):
        rng = random.Random(131)
        for _ in range(20):
            rank = rng.randint(2, 3)
            family = helpers.random_clean_family(rng, rank, 2, 6)
            alphabet = Alphabet(rank)
            ball = build_ball(alphabet, 3)
            axes = enumerate_axes(family, ball)
            if lemma33_certificate(ball, axes).certified:
                profile = class_count_profile(alphabet, family, 3)
                assert all(count == 1 for _, count in profile), family

    def test_decomposable_reaches_two_classes(self):
        rng = random.Random(137)
        checked = 0
        for _ in range(30):
            family = helpers.random_family(rng, 2, 2, 6)
            verdict = decide_indecomposable(ALPH2, family)
            if verdict.decision != "decomposable":
                continue
            checked += 1
            bound = total_cyclic_length(family)
            found = False
            for radius in range(1, bound + 1):
                profile = class_count_profile(ALPH2, family, radius)
                if profile[-1][1] >= 2:
                    found = True
                    break
            assert found, family
        assert checked >= 8
