"""Groupoid model core: word arithmetic, enumeration, validation, JSON."""
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import pytest

import etale
from etale import (BudgetError, FiniteGroup, FreeGroup, GroupoidElement,
                   MeasureContext, ModelError, NonComposableError)


def oracle_free_sphere(rank, k):
    """Independent count of reduced words: brute-force filter of all strings."""
    if k == 0:
        return 1
    letters = [i for j in range(1, rank + 1) for i in (j, -j)]
    total = 0
    for w in itertools.product(letters, repeat=k):
        if all(w[i] != -w[i + 1] for i in range(k - 1)):
            total += 1
    return total


def test_free_sphere_counts_against_bruteforce(f2):
    for k in range(0, 8):
        assert f2.sphere_count(k) == oracle_free_sphere(2, k)
        assert len(f2.sphere(0, k)) == f2.sphere_count(k)


def test_free_ball_sizes(f2, z):
    assert len(f2.ball(0, 2)) == 17
    assert len(f2.ball(0, 3)) == 53
    assert [z.sphere_count(k) for k in range(5)] == [1, 2, 2, 2, 2]


def test_enumeration_order_deterministic(f2):
    words = [g.word for g in f2.sphere(0, 2)][:5]
    # letter order a < A < b < B, extended on the right
    assert words == [(1, 1), (1, 2), (1, -2), (-1, -1), (-1, 2)]
    assert [g.word for g in f2.ball(0, 1)] == [(), (1,), (-1,), (2,), (-2,)]
    assert f2.sphere(0, 3) == f2.sphere(0, 3)


def test_sphere_budget_error(f2):
    with pytest.raises(BudgetError) as err:
        f2.ball(0, 14)
    assert err.value.required == f2.ball_count(14)
    assert err.value.required > err.value.budget
    # a raised budget admits what the default refuses (checked at small radius)
    with pytest.raises(BudgetError):
        f2.sphere(0, 6, budget=100)
    assert len(f2.sphere(0, 6, budget=f2.ball_count(6))) == f2.sphere_count(6)


def test_compose_inverse_group_laws(f2):
    a = GroupoidElement(0, (1,))
    b = GroupoidElement(0, (2,))
    ab = f2.compose(a, b)
    assert ab.word == (1, 2)
    assert f2.compose(a, f2.inverse(a)) == f2.unit_element(0)
    assert f2.inverse(ab).word == (-2, -1)
    assert f2.length(ab) == 2


def test_cancellation(f2):
    x = GroupoidElement(0, (1, 2, -1))
    y = GroupoidElement(0, (1, -2, -1))
    assert f2.compose(x, y).word == ()


def test_associativity_exhaustive_small(f2, z2_swap):
    ball = f2.ball(0, 1)
    for g in ball:
        for h in ball:
            for k in ball:
                lhs = f2.compose(f2.compose(g, h), k)
                rhs = f2.compose(g, f2.compose(h, k))
                assert lhs == rhs
    # all composable triples of the 4-element groupoid
    elems = [g for u in range(2) for g in z2_swap.ball(u, 1)]
    for g in elems:
        for h in elems:
            if z2_swap.source_unit(g) != h.unit:
                continue
            gh = z2_swap.compose(g, h)
            for k in elems:
                if z2_swap.source_unit(h) != k.unit:
                    continue
                assert z2_swap.compose(gh, k) == z2_swap.compose(g, z2_swap.compose(h, k))


def test_transformation_groupoid_structure(z2_swap):
    elems = {g for u in range(2) for g in z2_swap.ball(u, 1)}
    assert len(elems) == 4
    g01 = GroupoidElement(0, 1)
    assert z2_swap.source_unit(g01) == 1
    assert z2_swap.compose(g01, GroupoidElement(1, 1)) == z2_swap.unit_element(0)
    assert z2_swap.inverse(g01) == GroupoidElement(1, 1)
    with pytest.raises(NonComposableError):
        z2_swap.compose(g01, g01)


def test_fiber_bijection_transformation_model(f2_32):
    for k in range(4):
        counts = {len(f2_32.sphere(u, k)) for u in range(32)}
        assert counts == {f2_32.sphere_count(k)}


def test_range_source_involution_laws(f2_32):
    for u in (0, 5, 31):
        for g in f2_32.ball(u, 2):
            gi = f2_32.inverse(g)
            assert gi.unit == f2_32.source_unit(g)
            assert f2_32.source_unit(gi) == g.unit
            assert f2_32.inverse(gi) == g


def test_finite_group_validation():
    with pytest.raises(ModelError):
        FiniteGroup([[0, 1], [1, 1]], [1])  # not a latin square / no inverse
    with pytest.raises(ModelError):
        FiniteGroup([[1, 0], [1, 0]], [1])  # not associative as a group table
    t6 = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    with pytest.raises(ModelError):
        FiniteGroup(t6, [2])  # <2> = {0, 2, 4} does not generate
    with pytest.raises(ModelError):
        FiniteGroup(t6, [])


def test_finite_word_metric(z6):
    assert [z6.backend.length(e) for e in range(6)] == [0, 1, 2, 3, 2, 1]
    assert z6.sphere_count(3) == 1
    assert z6.ball_count(3) == 6
    assert z6.backend.max_radius == 3
    assert z6.sphere(0, 5) == []


def test_ball_count_closed_form(z6, z2_swap, s3):
    # growth asks for every radius up to K, so a running sum would make it cubic
    models = [etale.group_model(FreeGroup(rank)) for rank in (1, 2, 3)]
    for model, top in [(m, 60) for m in models] + [(z6, 6), (z2_swap, 4), (s3, 5)]:
        assert top > (model.backend.max_radius or 0)
        for k in range(-1, top + 1):
            assert model.ball_count(k) == sum(model.sphere_count(j) for j in range(k + 1))


def test_action_permutation_validation():
    with pytest.raises(ModelError):
        etale.build_model(FreeGroup(2), 3, [[0, 1, 1], [0, 1, 2]])
    with pytest.raises(ModelError):
        etale.build_model(FreeGroup(2), 3, [[0, 1, 2]])  # one perm missing


def test_finite_action_homomorphism_check():
    z2 = FiniteGroup([[0, 1], [1, 0]], [1])
    # a 3-cycle is not an involution, so it cannot represent g with g^2 = e
    with pytest.raises(ModelError):
        etale.build_model(z2, 3, [[1, 2, 0]])
    m = etale.build_model(z2, 3, [[1, 0, 2]])
    assert m.act(0, 1) == 1 and m.act(2, 1) == 2


def test_model_json_roundtrip(f2_32, z6, tmp_path):
    for model in (f2_32, z6):
        path = tmp_path / "m.json"
        etale.save_model(model, path)
        loaded = etale.load_model(path)
        assert loaded.to_dict() == model.to_dict()
        assert loaded.digest() == model.digest()


def test_model_digest_distinguishes(f2, z):
    assert f2.digest() != z.digest()
    assert len(f2.digest()) == 64


def test_malformed_model_data():
    with pytest.raises(ModelError):
        etale.model_from_dict({"backend": {"free": 2}})
    with pytest.raises(ModelError):
        etale.model_from_dict({"backend": {"weird": 1}, "units": 1, "action": []})
    with pytest.raises(ModelError):
        etale.model_from_dict({"backend": {"finite": {"table": [[0]]}},
                               "units": 1, "action": []})
    for action in ([[0.5], [0]], [["0"], [0]]):
        with pytest.raises(ModelError, match="not a permutation"):
            etale.model_from_dict({"backend": {"free": 2}, "units": 1, "action": action})
    # non-integral numbers are refused, not truncated
    z2 = {"table": [[0, 1], [1, 0]], "generators": [1]}
    for data in ({"backend": {"free": 2.5}, "units": 1, "action": [[0], [0]]},
                 {"backend": {"free": 2}, "units": 1.9, "action": [[0], [0]]},
                 {"backend": {"finite": z2 | {"order": 2.5}}, "units": 1, "action": [[0]]},
                 {"backend": {"finite": z2 | {"generators": [1.5]}}, "units": 1,
                  "action": [[0]]}):
        with pytest.raises(ModelError, match="expected an integer"):
            etale.model_from_dict(data)
    # backend and model refusals, each with its message
    cyclic = [[(i + j) % 257 for j in range(257)] for i in range(257)]
    for backend, units, action, message in (
            ({"free": 0}, 1, [], "free group rank must be >= 1"),
            ({"finite": {"table": [[0, 1]], "generators": [1]}}, 1, [[0]],
             "multiplication table must be square"),
            ({"finite": {"table": cyclic, "generators": [1]}}, 1, [[0]],
             "finite group order must be in 1..256"),
            ({"finite": {"table": [[0, 2], [2, 0]], "generators": [1]}}, 1, [[0]],
             "table entries out of range"),
            ({"finite": {"table": [[0, 0], [0, 0]], "generators": [1]}}, 1, [[0]],
             "table has no two-sided identity"),
            ({"finite": z2 | {"generators": [2]}}, 1, [[0]], "generator 2 out of range"),
            ({"free": 1}, 0, [[]], "unit space must be nonempty"),
            ({"finite": z2 | {"generators": [1, 1]}}, 2, [[1, 0], [0, 1]],
             "conflicting action for generator 1"),
            ({"finite": z2 | {"order": 3}}, 1, [[0]], "declared order does not match the table")):
        with pytest.raises(ModelError, match=re.escape(message)):
            etale.model_from_dict({"backend": backend, "units": units, "action": action})
    z2_model = etale.model_from_dict({"backend": {"finite": z2}, "units": 1, "action": [[0]]})
    assert z2_model.backend.word_from_json(1) == 1
    for word in (1.5, "1"):
        with pytest.raises(ModelError, match="expected an integer"):
            z2_model.backend.word_from_json(word)


def test_word_json_roundtrip(f2, z6):
    b = f2.backend
    assert b.word_to_json((1, -2, 1)) == "a B a"
    assert b.word_from_json("a B a") == (1, -2, 1)
    assert b.word_from_json("a A") == ()  # normalized on parse
    with pytest.raises(ModelError):
        b.word_from_json("a z")
    assert z6.backend.word_from_json(4) == 4
    with pytest.raises(ModelError):
        z6.backend.word_from_json(9)


def test_measure_context(z2_swap, f2):
    MeasureContext.uniform(z2_swap).validate(z2_swap)
    MeasureContext.from_weights(z2_swap, [0.5, 0.5])
    with pytest.raises(ModelError):
        MeasureContext.from_weights(z2_swap, [0.3, 0.7])  # not swap-invariant
    with pytest.raises(ModelError):
        MeasureContext.from_weights(f2, [0.5])
    with pytest.raises(ModelError, match="measure has wrong number of weights"):
        MeasureContext.from_weights(z2_swap, [1.0])
    with pytest.raises(ModelError, match="measure weights must be nonnegative"):
        MeasureContext.from_weights(z2_swap, [1.5, -0.5])


def oracle_sphere_words(rank, k):
    """Reduced words of length k in length-lex order, from all strings."""
    letters = [i for j in range(1, rank + 1) for i in (j, -j)]
    return [w for w in itertools.product(letters, repeat=k)
            if all(w[i] != -w[i + 1] for i in range(k - 1))]


def oracle_finite_bfs(backend):
    """Elements in breadth-first discovery order from the identity over the
    symmetric closure of the given generators, with their word lengths."""
    table = backend.table.tolist()
    e = table.index(list(range(len(table))))
    gens = []
    for g in backend.given_generators:
        for h in (g, table[g].index(e)):
            if h not in gens:
                gens.append(h)
    order, dist = [e], {e: 0}
    for x in order:  # grows as a FIFO queue
        for g in gens:
            y = table[x][g]
            if y not in dist:
                dist[y] = dist[x] + 1
                order.append(y)
    return order, dist


def assert_sphere_words(backend, k, sphere):
    """``sphere_words`` reads the sphere by index: every index, then every
    third in reverse, twice over."""
    assert backend.sphere_words(k, range(len(sphere))) == sphere
    picks = [*range(len(sphere))][::-3] * 2
    assert backend.sphere_words(k, picks) == [sphere[j] for j in picks]


def test_enumeration_matches_oracles(z6, z2_swap, s3):
    for rank in (1, 2, 3):
        model = etale.group_model(FreeGroup(rank))
        for k in range(7):
            ball = [w for j in range(k + 1) for w in oracle_sphere_words(rank, j)]
            assert model.backend.ball_words(k) == ball
            assert model.ball(0, k) == [GroupoidElement(0, w) for w in ball]
            sphere = oracle_sphere_words(rank, k)
            assert model.sphere(0, k) == [GroupoidElement(0, w) for w in sphere]
            assert_sphere_words(model.backend, k, sphere)
    for model in (z6, z2_swap, s3):
        order, dist = oracle_finite_bfs(model.backend)
        for k in range(max(dist.values()) + 2):
            ball = [x for x in order if dist[x] <= k]
            assert model.backend.ball_words(k) == ball
            assert_sphere_words(model.backend, k, [x for x in ball if dist[x] == k])
            for u in range(model.units):
                assert model.ball(u, k) == [GroupoidElement(u, x) for x in ball]
                assert model.sphere(u, k) == [GroupoidElement(u, x) for x in ball
                                              if dist[x] == k]


def test_enumeration_empty_below_zero_and_charged_first(f2, z6, monkeypatch):
    for model in (f2, z6):
        assert model.ball(0, -1) == [] and model.sphere(0, -1) == []
        assert model.backend.ball_words(-1) == []
    built = []
    for cls in (FreeGroup, FiniteGroup):
        monkeypatch.setattr(cls, "ball_words", lambda self, L: built.append(L) or [])
    for model in (f2, z6):
        for enumerate_ in (model.ball, model.sphere):
            with pytest.raises(BudgetError):
                enumerate_(0, 3, budget=4)
    assert built == []


def test_radius_refused_from_its_logarithm(monkeypatch):
    # ball_count(k) > q^(k-1) for q = 2 rank - 1: a radius past the budget by
    # that bound is refused before its count is formed, and a ball that fits
    # the budget is never refused
    for rank in (2, 3):
        model = etale.group_model(FreeGroup(rank))
        for budget in (10, 5_000_000, 10 ** 40, 10 ** 400):
            fits = max(k for k in range(1200) if model.ball_count(k) <= budget)
            model._charge(fits, budget)
            with pytest.raises(BudgetError, match=f"ball of radius {fits + 1} needs"):
                model._charge(fits + 1, budget)
    formed = []
    monkeypatch.setattr(FreeGroup, "ball_count", lambda self, k: formed.append(k))
    model = etale.group_model(FreeGroup(2))
    with pytest.raises(BudgetError) as err:
        model._charge(10 ** 7, None)
    assert str(err.value) == ("ball of radius 10000000 needs about 10^4771212.85 elements, "
                              "budget is 5000000")
    assert (err.value.required, err.value.budget) == (None, 5_000_000)
    with pytest.raises(BudgetError, match=r"needs about 10\^inf elements"):
        model._charge(10 ** 400, None)
    assert formed == []


def test_free_backend_keeps_no_word_cache(f2):
    f2.ball(0, 6)
    f2.sphere(0, 5)
    assert vars(f2.backend) == {"rank": 2}


def test_models_and_balls_build_no_walk_table():
    # a rank-2,048 free group's radius-1 walk table is 4,098 x 4,096 int64
    # entries, 134 MB: a model, its balls and spheres need none of it
    tracemalloc.start()
    try:
        model = etale.group_model(FreeGroup(2048))
        ball, sphere = model.ball(0, 1), model.sphere(0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ball) == 4097 and sphere == ball[1:]
    assert model.act(0, (-2048,)) == 0
    assert peak < 8 * 2 ** 20


def test_walk_table_charged_before_it_is_built(f2):
    # radius 13 on F_2 is 3,188,645 elements, inside the default budget, and
    # its walk table (3,188,646 x 4 entries) is refused before it is built
    with pytest.raises(BudgetError,
                       match="^walk table of radius 13 needs 12754584 entries, budget is 5000000$"):
        f2.ball_tree(13)
    with pytest.raises(BudgetError, match="^walk table of radius 2 needs 72 entries, budget is 71$"):
        f2.ball_tree(2, 71)
    assert len(f2.ball_tree(2, 72)[0]) == 17


def test_free_ball_tree_right_table():
    backend = FreeGroup(2)
    L = 4
    parent, gen, right = backend.ball_tree(L)
    words = backend.ball_words(L)
    n = len(words)
    index = {w: i for i, w in enumerate(words)}
    letters = backend.letters()
    assert right.shape == (n + 1, len(letters))
    assert right[n].tolist() == [n] * len(letters)
    for i, w in enumerate(words[1:], 1):
        assert words[parent[i]] + (letters[gen[i]],) == w
    for i, w in enumerate(words):
        for c, x in enumerate(letters):
            assert right[i, c] == index.get(backend.mul(w, (x,)), n)
        assert backend.spell(w) == [letters.index(x) for x in w]


def test_finite_action_along_bfs_tree(s3):
    f2_32 = etale.load_model(Path(__file__).resolve().parents[1] / "models" / "f2_32units.json")
    # every word of length <= 4 in S_3's generators, and of length <= 3 in
    # F_2's letters (unreduced ones too), composed letter by letter
    for model, k_max in ((s3, 4), (f2_32, 3)):
        backend, n = model.backend, model.units
        free = isinstance(backend, FreeGroup)
        gen_perm = {(g,) if free else g: list(p)
                    for g, p in zip(backend.given_generators, model.action)}
        for g in list(gen_perm):
            gen_perm.setdefault(backend.inv(g), [gen_perm[g].index(x) for x in range(n)])
        seen = set()
        for k in range(k_max + 1):
            for word in itertools.product(list(gen_perm), repeat=k):
                e, units = backend.identity, list(range(n))
                for g in word:
                    e = backend.mul(e, g)
                    units = [gen_perm[g][x] for x in units]
                assert [model.act(u, e) for u in range(n)] == units
                seen.add(e)
        assert len(seen) == (backend.order if not free else backend.ball_count(k_max))
    with pytest.raises(ModelError):
        f2_32.act(0, (1, 0))
    backend = s3.backend
    letters = backend.letters()
    for e in range(backend.order):
        spelled = backend.identity
        for c in backend.spell(e):
            spelled = backend.mul(spelled, letters[c])
        assert spelled == e and len(backend.spell(e)) == backend.length(e)
