"""Reference computations for the benchmark's output checks.

Nothing here imports ``etale``.  Words, balls, unit actions, operators,
Gram matrices and convolutions are rebuilt from the model JSON with the
benchmark's own arithmetic, so every check compares the program against a
computation made apart from it.

Conventions follow the model file format: a free word is a tuple of
signed letters (``1 = a``, ``-1 = A``, ``2 = b``, ...), a finite-group
element is its row in the multiplication table, and ``action[i]`` is the
right action of the ``i``-th given generator on the units.  A groupoid
element is ``(range unit, word)`` with source ``unit . word``.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np


def _inverse_perm(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return out


class RefModel:
    """Independent arithmetic for one model file."""

    def __init__(self, path):
        with open(path) as fh:
            data = json.load(fh)
        self.units = int(data["units"])
        spec = data["backend"]
        if "free" in spec:
            self.free = True
            self.rank = int(spec["free"])
            self.identity = ()
            self.letters = [s * i for i in range(1, self.rank + 1) for s in (1, -1)]
            self._letter_perm = {}
            for i, p in enumerate(data["action"], start=1):
                self._letter_perm[i] = list(p)
                self._letter_perm[-i] = _inverse_perm(p)
            return
        self.free = False
        table = [list(row) for row in spec["finite"]["table"]]
        n = len(table)
        self.table = table
        self.identity = next(e for e in range(n)
                             if all(table[e][x] == x == table[x][e] for x in range(n)))
        self._inv = [next(h for h in range(n) if table[g][h] == self.identity)
                     for g in range(n)]
        given = [int(g) for g in spec["finite"]["generators"]]
        gens = []
        for g in given:
            for h in (g, self._inv[g]):
                if h not in gens:
                    gens.append(h)
        self.letters = gens
        gen_perm = {g: list(p) for g, p in zip(given, data["action"])}
        for g in gens:
            if g not in gen_perm:
                gen_perm[g] = _inverse_perm(gen_perm[self._inv[g]])
        # breadth-first discovery order; u . (e g) = (u . e) . g
        self._dist = {self.identity: 0}
        self._elem_perm = {self.identity: list(range(self.units))}
        order, frontier = [self.identity], [self.identity]
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    f = table[e][g]
                    if f not in self._dist:
                        self._dist[f] = self._dist[e] + 1
                        self._elem_perm[f] = [gen_perm[g][self._elem_perm[e][u]]
                                              for u in range(self.units)]
                        order.append(f)
                        nxt.append(f)
            frontier = nxt
        top = max(self._dist.values())
        self._finite_spheres = [[e for e in order if self._dist[e] == k] for k in range(top + 1)]

    # -- group arithmetic ---------------------------------------------------

    def mul(self, a, b):
        if not self.free:
            return self.table[a][b]
        out = list(a)
        for x in b:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def inv(self, a):
        if not self.free:
            return self._inv[a]
        return tuple(-x for x in reversed(a))

    def length(self, w) -> int:
        return len(w) if self.free else self._dist[w]

    def act(self, u: int, w) -> int:
        if not self.free:
            return self._elem_perm[w][u]
        for x in w:
            u = self._letter_perm[x][u]
        return u

    def word(self, text):
        """A word from its model-file text: ``"a B"`` or a table index."""
        if not self.free:
            return int(text)
        w = ()
        for tok in text.split():
            letter = ord(tok.lower()) - ord("a") + 1
            w = self.mul(w, (letter if tok.islower() else -letter,))
        return w

    # -- spheres and balls ----------------------------------------------------

    def sphere(self, k: int) -> list:
        """Words of length exactly k: length-lex with a < A < b < B < ...
        for free groups, breadth-first discovery order for finite ones."""
        if not self.free:
            return list(self._finite_spheres[k]) if k < len(self._finite_spheres) else []
        words = [()]
        for _ in range(k):
            words = [w + (x,) for w in words for x in self.letters if not w or x != -w[-1]]
        return words

    def ball(self, k: int) -> list:
        return [w for j in range(k + 1) for w in self.sphere(j)]

    def sphere_count(self, k: int) -> int:
        if not self.free:
            return len(self.sphere(k))
        return 1 if k == 0 else 2 * self.rank * (2 * self.rank - 1) ** (k - 1)

    def diameter(self):
        return None if self.free else len(self._finite_spheres) - 1


# -- functions on the groupoid --------------------------------------------------

def function_from_spec(model: RefModel, spec, base_dir=None) -> dict:
    """``{(unit, word): complex}`` for a CLI function spec."""
    if isinstance(spec, list):
        out = {}
        for e in spec:
            key = (int(e.get("unit", 0)), model.word(e["word"]))
            out[key] = out.get(key, 0j) + complex(e.get("re", 0.0), e.get("im", 0.0))
        return {k: v for k, v in out.items() if v != 0}
    kind, val = next(iter(spec.items()))
    if kind == "file":
        with open(val) as fh:
            return function_from_spec(model, json.load(fh))
    if kind == "sphere":
        k, c = int(val), 1.0
    elif kind == "sphere_weighted":
        k, c = int(val["k"]), float(val["alpha"]) ** int(val["k"])
    elif kind == "delta":
        return {(int(val.get("unit", 0)), model.word(val["word"])):
                complex(val.get("re", 1.0), val.get("im", 0.0))}
    else:
        raise ValueError(f"unknown function spec {kind!r}")
    return {(u, w): complex(c) for u in range(model.units) for w in model.sphere(k)}


def radial_profile(spec):
    """Per-sphere coefficients of a sphere or weighted-sphere spec, else None."""
    if not isinstance(spec, dict):
        return None
    kind, val = next(iter(spec.items()))
    if kind == "sphere":
        return [0.0] * int(val) + [1.0]
    if kind == "sphere_weighted":
        k = int(val["k"])
        return [0.0] * k + [float(val["alpha"]) ** k]
    return None


def i_norm(model: RefModel, f: dict) -> float:
    """Max over units of the range- and source-fiber l1 masses."""
    rng, src = [0.0] * model.units, [0.0] * model.units
    for (u, w), v in f.items():
        rng[u] += abs(v)
        src[model.act(u, w)] += abs(v)
    return max(rng + src)


def convolve(model: RefModel, f: dict, g: dict) -> dict:
    by_range = {}
    for (u, w), v in g.items():
        by_range.setdefault(u, []).append((w, v))
    out = {}
    for (u, wa), va in f.items():
        for wb, vb in by_range.get(model.act(u, wa), ()):
            key = (u, model.mul(wa, wb))
            out[key] = out.get(key, 0j) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def involution(model: RefModel, f: dict) -> dict:
    return {(model.act(u, w), model.inv(w)): v.conjugate() for (u, w), v in f.items()}


# -- truncated convolution operators ----------------------------------------------

def fiber_operator(model: RefModel, f: dict, u: int, L: int) -> np.ndarray:
    """Dense matrix of left convolution by f on the radius-L ball of the
    source fiber at u, whose basis is ``(u . w^-1, w)`` for ``|w| <= L``."""
    words = model.ball(L)
    index = {w: i for i, w in enumerate(words)}
    by_source = {}
    for (r, wa), v in f.items():
        by_source.setdefault(model.act(r, wa), []).append((wa, v))
    M = np.zeros((len(words), len(words)), dtype=complex)
    for j, w in enumerate(words):
        for wa, v in by_source.get(model.act(u, model.inv(w)), ()):
            i = index.get(model.mul(wa, w))
            if i is not None:
                M[i, j] += v
    return M


def svd_norm(model: RefModel, f: dict, u: int, L: int) -> float:
    M = fiber_operator(model, f, u, L)
    return float(np.linalg.svd(M, compute_uv=False)[0]) if M.size else 0.0


def _distance_counts(rank: int, i: int, k: int):
    """``(level, count)`` of the vertices at distance k from a fixed vertex
    at level i of the rooted 2*rank-regular tree."""
    deg, q = 2 * rank, 2 * rank - 1
    if k == 0:
        return [(i, 1)]
    out = [(i + k, deg * q ** (k - 1) if i == 0 else q ** k)]
    for c in range(1, min(i, k) + 1):
        if c == k:
            out.append((i - k, 1))
        else:
            branches = deg - 1 if c == i else q - 1
            out.append((i + k - 2 * c, branches * q ** (k - c - 1)))
    return out


def radial_quotient(rank: int, profile, L: int) -> np.ndarray:
    """Symmetrized sphere quotient of ``f = sum_k profile[k] chi_k`` on the
    radius-L ball of the free group: ``S = D^(1/2) B D^(-1/2)`` with B the
    level-to-level count matrix and D the sphere sizes.  For ``chi_1`` on F_2
    it is tridiagonal with off-diagonals 2, sqrt 3, ..., sqrt 3."""
    sizes = [1] + [2 * rank * (2 * rank - 1) ** (j - 1) for j in range(1, L + 1)]
    B = np.zeros((L + 1, L + 1))
    for i in range(L + 1):
        for k, c in enumerate(profile):
            if c:
                for j, count in _distance_counts(rank, i, k):
                    if j <= L:
                        B[i, j] += c * count
    S = B * np.sqrt(np.outer(sizes, 1.0 / np.asarray(sizes, dtype=float)))
    if not np.allclose(S, S.T, rtol=1e-12, atol=0):
        raise AssertionError("sphere quotient is not symmetrizable")
    return S


def radial_norm(rank: int, profile, L: int) -> float:
    """Norm of a nonnegative radial function on the radius-L ball.  The
    operator is nonnegative and commutes with the root stabilizer, so a
    Perron vector is radial and the top eigenvalue is the quotient's."""
    if rank == 1 and list(profile) == [0.0, 1.0]:
        return 2.0 * math.cos(math.pi / (2 * L + 2))
    return float(np.linalg.eigvalsh(radial_quotient(rank, profile, L))[-1])


def chi1_power_values(rank: int, n_max: int) -> list[float]:
    """``|h^(2^n)|_2^(1/(2*2^n))`` for ``h = chi_1 * chi_1`` on F_rank,
    n = 1..n_max, from exact integer walk counts on the tree."""
    q = 2 * rank - 1
    out = []
    for n in range(1, n_max + 1):
        m = 2 ** (n + 1)  # h^(2^n) = chi_1^(2^(n+1))
        p = [1] + [0] * m  # walks from the root ending at one vertex per level
        for _ in range(m):
            p = [2 * rank * p[1]] + [p[j - 1] + q * p[j + 1] for j in range(1, m)] + [p[m - 1]]
        total = sum((1 if j == 0 else 2 * rank * q ** (j - 1)) * c * c for j, c in enumerate(p))
        out.append(math.exp(0.5 * math.log(total) / (2 * 2 ** n)))
    return out


# -- kernels and geometry -----------------------------------------------------

def kernel_fn(spec: dict):
    kind, val = next(iter(spec.items()))
    if kind == "exp_length":
        return lambda d: float(val) ** d
    if kind == "haagerup":
        return lambda d: math.exp(-d / float(val))
    raise ValueError(f"no reference for kernel {kind!r}")


def gram(model: RefModel, kernel, words) -> np.ndarray:
    """``G[i, j] = F(x_i^-1 x_j)`` for a radial kernel on one range fiber."""
    inv = [model.inv(w) for w in words]
    return np.array([[kernel(model.length(model.mul(a, b))) for b in words] for a in inv])


def four_point_delta(model: RefModel, words) -> int:
    """Brute-force largest excess of the largest pair sum over the second."""
    n = len(words)
    D = [[model.length(model.mul(model.inv(a), b)) for b in words] for a in words]
    best = 0
    for i, j, k, l in itertools.product(range(n), repeat=4):
        s = sorted((D[i][j] + D[k][l], D[i][k] + D[j][l], D[i][l] + D[j][k]))
        best = max(best, s[2] - s[1])
    return best


def growth_ratio(model: RefModel):
    """Sphere-count ratio of a free backend; None when fibers are bounded."""
    return float(2 * model.rank - 1) if model.free else None
