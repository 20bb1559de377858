"""Seeded op lists with answers known by construction.

Every op is one ``freesplit`` command line plus the answer it must give.
The answers come from how the inputs are built, checked with this file's
own word arithmetic and with networkx; nothing here imports freesplit.

* Indecomposable families are automorphic images of seed families whose
  Whitehead graph is connected with no cut vertex (networkx), so by
  Whitehead's cut-vertex lemma they lie in no proper free factor.  No
  Whitehead move shortens a seed, by the cut formula
  ``|phi(W)| - |W| = cap(A) - deg(x)`` (Gersten, Bull. AMS 10, 1984), so by
  Whitehead's theorem it is minimal in its orbit and ``minimize`` must end
  at the seed's total length.
* Decomposable families are images of minimal families that avoid a
  generator.
* ``basis`` inputs are images of the standard basis (BASIS), or the same
  images with one word squared (NOT A BASIS: a proper power is never
  primitive).
* Ball ops use clean families (indivisible, pairwise non-conjugate up to
  inversion).  The all-stars certificate holds exactly when the Whitehead
  graph is 2-connected, each tree edge lies on as many axes as the family
  has letters of that edge's generator, an all-ones profile follows from
  2-connectivity, and the number of axes meeting the ball is
  ``|V| * sum|w| - sum over edges of the edge counts`` (each line meets
  the ball in a path).
* Graph-of-groups files are built so that the verdict, the witness vertex
  and the presentation's generator and relation counts are known.
"""

from __future__ import annotations

import math
import random
import re

import networkx as nx

LOWER = "abcdefghijklmnopqrstuvwxyz"

# The lone cyclic vertex is the group Z, which has two ends; freesplit
# reports it ONE-ENDED (ROADMAP item 4).  The op stays in the gog list with
# the correct expected answer so that the defect shows in fail_ratio.
KNOWN_DEFECTS = {"lone-cyclic-vertex": "vertex v cyclic\n"}


# ---------------------------------------------------------------------------
# Word arithmetic (independent of freesplit)


def letters(rank):
    return [s * i for i in range(1, rank + 1) for s in (1, -1)]


def fmt(word):
    return "".join(LOWER[x - 1] if x > 0 else LOWER[-x - 1].upper() for x in word)


def invert(word):
    return tuple(-x for x in reversed(word))


def free_reduce(seq):
    out = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_core(word):
    """The cyclically reduced core of a word (some rotation of the class)."""
    w = free_reduce(word)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i, j = i + 1, j - 1
    return w[i:j]


def rotations(word):
    return {word[i:] + word[:i] for i in range(len(word))}


def least_rotation(word):
    return min(rotations(word), key=lambda w: [(abs(x), x < 0) for x in w])


def is_proper_power(word):
    return any(word == word[i:] + word[:i] for i in range(1, len(word)))


def random_cyclic_word(rng, rank, length, alphabet=None):
    alphabet = alphabet or letters(rank)
    while True:
        word = []
        for _ in range(length):
            word.append(rng.choice([x for x in alphabet if not word or x != -word[-1]]))
        if length == 1 or word[0] != -word[-1]:
            return tuple(word)


def split_lengths(rng, total, parts):
    """``parts`` random positive word lengths summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def some_lengths(rng, total, max_words):
    """Random word lengths, at most ``max_words`` of them, summing to ``total``."""
    return split_lengths(rng, total, rng.randint(1, min(max_words, total)))


def random_automorphism(rng, rank, multiplier_moves):
    """Generator images of a random permutation composed with Whitehead moves."""
    perm = list(range(1, rank + 1))
    rng.shuffle(perm)
    images = {g: (rng.choice((1, -1)) * perm[g - 1],) for g in range(1, rank + 1)}
    for _ in range(multiplier_moves):
        if rank == 1:
            break
        x = rng.choice(letters(rank))
        side = {x} | {y for y in letters(rank) if abs(y) != abs(x) and rng.random() < 0.5}
        move = {}
        for g in range(1, rank + 1):
            if g == abs(x):
                move[g] = (g,)
            else:
                move[g] = ((-x,) if -g in side else ()) + (g,) + ((x,) if g in side else ())
        images = {g: apply_map(move, img) for g, img in images.items()}
    return images


def apply_map(images, word):
    out = []
    for x in word:
        out.extend(images[x] if x > 0 else invert(images[-x]))
    return free_reduce(out)


def image_family(images, family):
    return tuple(cyclic_core(apply_map(images, w)) for w in family)


# ---------------------------------------------------------------------------
# Whitehead-graph oracles


def pair_counts(family):
    """Whitehead-graph edge multiplicities: x -- y^-1 per cyclic substring xy."""
    counts = {}
    for w in family:
        for i, x in enumerate(w):
            key = frozenset((x, -w[(i + 1) % len(w)]))
            counts[key] = counts.get(key, 0) + 1
    return counts


def two_connected(family, rank):
    graph = nx.Graph()
    graph.add_nodes_from(letters(rank))
    graph.add_edges_from(tuple(pair) for pair in pair_counts(family))
    if rank == 1:
        return graph.number_of_edges() == 1
    return nx.is_biconnected(graph)


def no_shortening_move(family, rank):
    """True when no multiplier move (x, A) has cap(A) < deg(x)."""
    index = {x: i for i, x in enumerate(letters(rank))}
    edges = [(index[a], index[b], m) for (a, b), m in
             ((tuple(p), m) for p, m in pair_counts(family).items())]
    for x in letters(rank):
        deg = sum(m for a, b, m in edges if index[x] in (a, b))
        others = [index[y] for y in letters(rank) if abs(y) != abs(x)]
        for mask in range(1 << len(others)):
            side = 1 << index[x]
            for i, bit in enumerate(others):
                if mask >> i & 1:
                    side |= 1 << bit
            cap = sum(m for a, b, m in edges if (side >> a & 1) != (side >> b & 1))
            if cap < deg:
                return False
    return True


def minimal_indecomposable_seed(rng, rank, lengths):
    """A 2-connected, Whitehead-minimal family; ``lengths()`` gives its word lengths."""
    while True:
        family = tuple(random_cyclic_word(rng, rank, k) for k in lengths())
        if two_connected(family, rank) and no_shortening_move(family, rank):
            return family


def decomposable_seed(rng, rank, lengths):
    """A Whitehead-minimal family that avoids one generator, hence lies in a
    proper free factor."""
    avoided = rng.randint(1, rank)
    alphabet = [x for x in letters(rank) if abs(x) != avoided]
    while True:
        family = tuple(random_cyclic_word(rng, rank, k, alphabet) for k in lengths)
        if no_shortening_move(family, rank):
            return family


# ---------------------------------------------------------------------------
# Op lists


def op(argv, expect, group=None, **extra):
    return {"argv": argv, "expect": expect, "group": group or {}, **extra}


def family_argv(command, rank, family):
    # Words go in their least rotation; any other rotation makes the CLI warn.
    return [command, "--rank", str(rank)] + [fmt(least_rotation(w)) for w in family]


def total_length(family):
    return sum(len(w) for w in family)


# Random automorphisms tried on one seed for a single lengthening move.
MOVE_TRIES = 10_000


def word_ops(rng, rank, kind, seed_length, moves, group_key, words=None):
    """One op of the given kind on the image of a fresh Whitehead-minimal seed.

    The seed has ``words`` words of near-equal lengths, or one to three
    words of random lengths.  A single multiplier move is redrawn until it
    lengthens the seed, so that the descent undoes it in exactly one step.
    """
    def lengths():
        if words:
            return [seed_length // words + (i < seed_length % words) for i in range(words)]
        return some_lengths(rng, seed_length, 3)

    while True:
        if kind in ("indecomposable", "minimize"):
            seed = minimal_indecomposable_seed(rng, rank, lengths)
        elif kind == "decomposable":
            seed = decomposable_seed(rng, rank, lengths())
        else:  # basis, basis-minimize, not-basis: the standard basis
            seed = tuple((g,) for g in range(1, rank + 1))
        for _ in range(MOVE_TRIES):
            family = image_family(random_automorphism(rng, rank, moves), seed)
            if moves != 1 or total_length(family) > total_length(seed):
                break
        else:
            # No move lengthens this seed (every Whitehead move keeps the
            # length of, e.g., a commutator): draw another seed.
            continue
        break
    group = {group_key: rank if group_key == "rank" else total_length(family)}
    if kind in ("indecomposable", "decomposable"):
        return op(family_argv("indecomposable", rank, family), {"kind": kind, "rank": rank}, group)
    if kind in ("minimize", "basis-minimize"):
        return op(family_argv("minimize", rank, family),
                  {"kind": "minimize", "start": total_length(family),
                   "final": total_length(seed)}, group)
    if kind == "not-basis":
        i = rng.randrange(rank)
        family = family[:i] + (family[i] * 2,) + family[i + 1:]
        return op(family_argv("basis", rank, family), {"kind": "exact", "stdout": "NOT A BASIS\n"},
                  group)
    return op(family_argv("basis", rank, family), {"kind": "exact", "stdout": "BASIS\n"}, group)


def stratum(lo, hi, j, count):
    """The j-th of ``count`` evenly spaced integers from lo to hi.

    Sizes and move counts are spread evenly rather than drawn at random, so
    that the cost of a pass barely depends on the seed; the words are random.
    """
    return lo + (hi - lo) * j // max(1, count - 1)


# (rank, kind, count, seed total length range, multiplier moves range).
# Multi-step descents are left to rank 2; from rank 3 on, at most one
# multiplier move is applied, so that an image of a minimal family takes
# exactly one descent step and the costly scans come in fixed numbers.
# The 14 ops of rank 4 and 5 form the top cost class, which holds the 90th
# percentile.
WORD_RANK_PLAN = [
    (2, "indecomposable", 20, (8, 20), (0, 3)),
    (2, "decomposable", 11, (4, 16), (0, 3)),
    (2, "minimize", 10, (8, 20), (1, 3)),
    (2, "basis-minimize", 4, (0, 0), (2, 5)),
    (2, "basis", 8, (0, 0), (1, 5)),
    (2, "not-basis", 8, (0, 0), (1, 5)),
    (3, "indecomposable", 8, (8, 14), (0, 1)),
    (3, "decomposable", 5, (4, 12), (0, 1)),
    (3, "minimize", 4, (8, 14), (1, 1)),
    (3, "basis-minimize", 2, (0, 0), (1, 1)),
    (3, "basis", 3, (0, 0), (1, 1)),
    (3, "not-basis", 3, (0, 0), (1, 1)),
    (4, "indecomposable", 4, (10, 12), (0, 1)),
    (4, "decomposable", 4, (6, 10), (0, 1)),
    (4, "minimize", 2, (10, 10), (1, 1)),
    (4, "basis", 2, (0, 0), (1, 1)),
    (5, "indecomposable", 1, (14, 14), (0, 0)),
    (5, "decomposable", 1, (6, 6), (0, 0)),
]


def word_rank_ops(rng):
    ops = []
    for rank, kind, count, lengths, moves in WORD_RANK_PLAN:
        for j in range(count):
            ops.append(word_ops(rng, rank, kind, stratum(*lengths, j, count),
                                stratum(*moves, (j * 7) % count, count), "rank"))
    return ops


def word_long_ops(rng):
    """Rank 2, one or two words, total length from 40 up to 400.

    84 ops have log-spaced target lengths from 40 to 110, 12 sit at 130 and
    4 reach 200, 260, 330 and 400; each image is kept only within 3% of its
    target.  Ops at 130 or more are one minimal word moved only by a
    permutation, so each costs exactly one scan: the block at 130 holds the
    90th percentile and the four longest carry much of wall_s.  The shorter
    ops, one or two words of equal length, set the median; every other pair
    of them applies one multiplier move that lengthens the family and that
    the descent undoes in exactly one step, so they cost one or two scans.
    Canonical rotation costs the square of a word's length, so word counts
    and splits are fixed rather than random.
    """
    targets = [round(40 * (110 / 40) ** (j / 83)) for j in range(84)] + [130] * 12
    targets += [200, 260, 330, 400]
    pattern = ["indecomposable", "minimize"] * 4 + ["indecomposable", "decomposable"]
    ops = []
    for i, target in enumerate(targets):
        kind = pattern[i % len(pattern)]
        moves, words = (i // 2 % 2, 1 + i % 2) if target < 130 else (0, 1)
        while True:
            seed_length = target if moves == 0 else round(target * rng.uniform(0.4, 1.0))
            candidate = word_ops(rng, 2, kind, seed_length, moves, "length", words)
            if abs(candidate["group"]["length"] - target) <= 0.03 * target:
                break
        ops.append(candidate)
    return ops


def predicted_vertices(rank, radius):
    d = 2 * rank
    return 1 + d * ((d - 1) ** radius - 1) // (d - 2)


def clean_family(rng, rank, max_words, total):
    """Indivisible words, pairwise non-conjugate up to inversion, of a given total length.

    The same families as ``random_clean_family`` in tests/helpers.py, with
    the total length fixed.  An arc system is a set of lines, so only on
    such families do axis counts match letter counts.
    """
    while True:
        family = tuple(random_cyclic_word(rng, rank, k)
                       for k in some_lengths(rng, total, max_words))
        if any(is_proper_power(w) for w in family):
            continue
        reps = {min(least_rotation(w), least_rotation(invert(w))) for w in family}
        if len(reps) == len(family):
            return family


def ball_ops(rng):
    """Tree ops at rank 2 radius 3..8 and rank 3 radius 2..5.

    Each radius cycles through certificate, counts, profile and axes (axes
    only on small balls, whose output stays short); certificates alternate
    between families that are certified and ones that are not.
    """
    # The 15 costliest ops (radius 6 and up at rank 2, 4 and up at rank 3)
    # are of one cost class, so the 90th percentile falls inside it rather
    # than on the step down to the next class.
    plan = [  # (rank, radius, count, max words, total length range)
        (2, 3, 18, 3, (4, 8)), (2, 4, 18, 3, (4, 8)), (2, 5, 14, 3, (4, 8)),
        (2, 6, 6, 3, (4, 6)), (2, 7, 1, 2, (5, 5)), (2, 8, 1, 2, (4, 4)),
        (3, 2, 18, 3, (6, 9)), (3, 3, 17, 3, (6, 9)), (3, 4, 6, 2, (6, 7)),
        (3, 5, 1, 2, (6, 6)),
    ]
    ops = []
    for rank, radius, count, max_words, lengths in plan:
        small = radius <= (5 if rank == 2 else 3)
        kinds = ["certificate", "counts", "profile", "axes" if small else "certificate"]
        for i in range(count):
            what = kinds[i % 4]
            want = {"profile": True, "certificate": i // 4 % 2 == 0}.get(what)
            while True:
                family = clean_family(rng, rank, max_words, stratum(*lengths, i, count))
                certified = two_connected(family, rank)
                if want is None or certified == want:
                    break
            flag = "--max-radius" if what == "profile" else "--radius"
            argv = ["tree"] + family_argv(what, rank, family) + [flag, str(radius)]
            group = {"rank": rank, "radius": radius}
            vertices = predicted_vertices(rank, radius)
            if what == "certificate":
                text = "CERTIFIED\n" if certified else "NOT CERTIFIED (vertex 1)\n"
                ops.append(op(argv, {"kind": "exact", "stdout": text}, group))
            elif what == "profile":
                text = "".join(f"radius {r}: 1\n" for r in range(1, radius + 1))
                ops.append(op(argv, {"kind": "exact", "stdout": text}, group))
            elif what == "counts":
                occurrences = [sum(1 for w in family for x in w if abs(x) == g)
                               for g in range(1, rank + 1)]
                ops.append(op(argv, {"kind": "counts", "occurrences": occurrences,
                                     "edges": vertices - 1}, group))
            else:
                # Each of the rank generators labels (vertices - 1) / rank edges.
                axes = total_length(family) * (vertices - (vertices - 1) // rank)
                ops.append(op(argv, {"kind": "axes", "total": axes}, group))
    return ops


# ---------------------------------------------------------------------------
# Graphs of groups


def _free_family(rng, rank, degree, decomposable):
    """Attachment words at a free vertex with the given number of edge ends.

    The total length is fixed by the rank unless the degree is high, and an
    indecomposable family is minimal and moved only by a permutation, so
    each decision is one move scan of nearly the same cost for every seed.
    """
    if rank == 1:
        low = 2 if degree == 1 else 1
        return tuple((rng.choice((1, -1)),) * rng.randint(low, 3) for _ in range(degree))
    if decomposable:
        family = decomposable_seed(rng, rank, split_lengths(rng, 2 * degree + 2, degree))
        return image_family(random_automorphism(rng, rank, 1), family)
    total = max(10 if rank == 2 else 14, 2 * degree)
    for attempt in range(1, 10_000):
        family = tuple(random_cyclic_word(rng, rank, k) for k in split_lengths(rng, total, degree))
        if two_connected(family, rank) and no_shortening_move(family, rank):
            return image_family(random_automorphism(rng, rank, 0), family)
        total += attempt % 50 == 0
    raise RuntimeError("no 2-connected family found")


def gog_graph(rng, size, one_ended, opaque):
    """Text of a graph of groups, plus its expected verdict and counts."""
    ids = [f"v{i:04d}" for i in range(size)]
    # Exact shares, shuffled: 30% free (of those 10% rank 1, 80% rank 2, 10%
    # rank 3), 20% opaque when allowed, the rest cyclic; v0000 is free of rank 2.
    free = max(1, round(0.3 * size))
    opaque_count = round(0.2 * size) if opaque else 0
    pool = ([("free", (2, 1, 2, 2, 2, 3, 2, 2, 2, 2)[j % 10]) for j in range(1, free)]
            + [("opaque", 0)] * opaque_count + [("cyclic", 1)] * (size - free - opaque_count))
    rng.shuffle(pool)
    kinds = dict(zip(ids, [("free", 2)] + pool))
    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, size)]
    for _ in range(max(1, size // 5)):
        u, v = rng.choice(ids), rng.choice(ids)
        edges.append((u, v))
        if rng.random() < 0.3:
            edges.append((u, v))  # parallel edge
    for _ in range(max(1, size // 20)):
        u = rng.choice(ids)
        edges.append((u, u))  # loop
    rng.shuffle(edges)
    ends = {vid: [] for vid in ids}
    for k, (u, v) in enumerate(edges):
        ends[u].append((k, 0))
        ends[v].append((k, 1))
    # The witness is the first splittable free vertex from 3/4 of the way
    # along, so a NOT ONE-ENDED graph costs about the same for every seed.
    free_ids = [vid for vid in ids if kinds[vid][0] == "free" and kinds[vid][1] >= 2]
    bad = set()
    if not one_ended:
        late = [vid for vid in free_ids if vid >= ids[3 * size // 4]] or free_ids[-1:]
        bad = {late[0]} | set(rng.sample(late, min(len(late), rng.randint(0, 2))))
    attach = [[None, None] for _ in edges]
    for vid in ids:
        kind, rank = kinds[vid]
        slots = ends[vid]
        if kind == "free":
            words = _free_family(rng, rank, len(slots), vid in bad)
            for (k, s), w in zip(slots, words):
                attach[k][s] = fmt(w)
        elif kind == "cyclic":
            low = 2 if len(slots) == 1 else 1
            for k, s in slots:
                attach[k][s] = str(rng.choice((1, -1)) * rng.randint(low, 3))
        else:
            for k, s in slots:
                attach[k][s] = rng.choice(("-", "t"))
    lines = [f"# {size} vertices"]
    for vid in ids:
        kind, rank = kinds[vid]
        lines.append(f"vertex {vid} free {rank}" if kind == "free" else f"vertex {vid} {kind}")
    for k, (u, v) in enumerate(edges):
        lines.append(f"edge e{k:04d} {u} {v} {attach[k][0]} {attach[k][1]}")
    generators = sum(rank if kind == "free" else 1 for kind, rank in kinds.values())
    generators += len(edges) - (size - 1)
    witness = min(bad) if bad else None
    return "\n".join(lines) + "\n", {
        "witness": witness,
        "witness_rank": kinds[witness][1] if witness else None,
        "generators": generators,
        "relations": len(edges),
    }


def gog_ops(rng, directory):
    """one-ended and present on generated files; returns (ops, files)."""
    files, ops = {}, []
    # Sizes are fixed and the large graphs are always one-ended, so every
    # free vertex is decided and a pass costs about the same for every seed.
    # The 90th percentile falls inside the block of twelve 100-vertex graphs.
    sizes = [round(10 * 8 ** (j / 47)) for j in range(48)] + [100] * 12 + [200, 1000]
    for i, size in enumerate(sizes):
        one_ended = size >= 100 or i % 5 < 3
        opaque = size < 100 and i % 3 == 0
        text, info = gog_graph(rng, size, one_ended, opaque)
        path = f"{directory}/g{i:03d}.gog"
        files[path] = text
        group = {"vertices": size}
        if info["witness"] is None:
            ops.append(op(["one-ended", path], {"kind": "exact", "stdout": "ONE-ENDED\n"}, group))
        else:
            ops.append(op(["one-ended", path], {"kind": "split", "vertex": info["witness"],
                                                "rank": info["witness_rank"]}, group))
        if not opaque:
            ops.append(op(["present", path], {"kind": "present",
                                              "generators": info["generators"],
                                              "relations": info["relations"]}, group))
    # Small fixed cases: a lone free vertex splits freely, and the known defect.
    path = f"{directory}/lone-free.gog"
    files[path] = "vertex v free 2\n"
    ops.append(op(["one-ended", path], {"kind": "exact", "stdout": (
        "NOT ONE-ENDED (vertex v: free vertex v has no incident edges and splits freely)\n")},
        {"vertices": 1}))
    for name, text in KNOWN_DEFECTS.items():
        path = f"{directory}/{name}.gog"
        files[path] = text
        ops.append(op(["one-ended", path], {"kind": "prefix", "stdout": "NOT ONE-ENDED"},
                      {"vertices": 1}, known_defect=name))
        ops.append(op(["present", path], {"kind": "present", "generators": 1, "relations": 0},
                      {"vertices": 1}))
    return ops, files


def build(workload, seed, directory):
    """The op list and input files of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "word-rank":
        return word_rank_ops(rng), {}
    if workload == "word-long":
        return word_long_ops(rng), {}
    if workload == "ball":
        return ball_ops(rng), {}
    if workload == "gog":
        return gog_ops(rng, directory)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Answer checks

_PARTITION = r"\{([a-z,]*)\}\|\{([a-z,]*)\}"
_DECOMPOSABLE = re.compile(rf"DECOMPOSABLE {_PARTITION}\n")
_SPLIT = re.compile(rf"NOT ONE-ENDED \(vertex (\S+): factor split {_PARTITION}\)\n")
_STEP = re.compile(r"step \d+: multiplier \S+ side \{\S*\} length (\d+) -> (\d+)")


def _is_partition(left, right, rank):
    sides = [set(left.split(",")) - {""}, set(right.split(",")) - {""}]
    return all(sides) and not sides[0] & sides[1] and sides[0] | sides[1] == set(LOWER[:rank])


def check(op, outcome):
    """None when the outcome is the known answer, else the reason it is not."""
    if outcome["error"] is not None:
        return "traceback: " + outcome["error"].strip().splitlines()[-1]
    if outcome["code"] != 0:
        return f"exit code {outcome['code']}"
    if outcome["stderr"]:
        return "unexpected stderr: " + outcome["stderr"].strip()[:200]
    out, expect = outcome["stdout"], op["expect"]
    kind = expect["kind"]
    if kind == "exact":
        ok = out == expect["stdout"]
    elif kind == "prefix":
        ok = out.startswith(expect["stdout"])
    elif kind == "indecomposable":
        ok = out == "INDECOMPOSABLE\n"
    elif kind == "decomposable":
        m = _DECOMPOSABLE.fullmatch(out)
        ok = bool(m) and _is_partition(m[1], m[2], expect["rank"])
    elif kind == "split":
        m = _SPLIT.fullmatch(out)
        ok = bool(m) and m[1] == expect["vertex"] and _is_partition(m[2], m[3], expect["rank"])
    elif kind == "minimize":
        lines = out.splitlines()
        lengths = [expect["start"]]
        for line in lines[:-1]:
            step = _STEP.fullmatch(line)
            if not step or int(step[1]) != lengths[-1] or int(step[2]) >= lengths[-1]:
                return f"bad step line {line!r}"
            lengths.append(int(step[2]))
        final = lines[-1].split()[1:] if lines and lines[-1].startswith("minimized: ") else None
        ok = final is not None and lengths[-1] == expect["final"] == sum(map(len, final))
    elif kind == "counts":
        lines = out.splitlines()
        ok = len(lines) == expect["edges"]
        for line in lines:
            edge, _, count = line.partition(": ")
            child = edge.split(" -- ")[1]
            generator = LOWER.index(child[-1].lower())
            ok = ok and int(count) == expect["occurrences"][generator]
    elif kind == "axes":
        lines = out.splitlines()
        axes = sum(1 for line in lines if line.startswith("axis "))
        ok = lines[-1:] == [f"total {expect['total']}"] and axes == expect["total"]
    elif kind == "present":
        m = re.fullmatch(r"< (.*) \|(.*)>\n", out)
        relations = m and m[2].strip()
        ok = bool(m) and (len(m[1].split(", ")) == expect["generators"]
                          and (len(relations.split(", ")) if relations else 0)
                          == expect["relations"])
    else:
        raise ValueError(f"unknown expectation {kind!r}")
    return None if ok else f"wrong answer: {out[:200]!r}"
