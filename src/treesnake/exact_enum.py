"""Exact distribution computations over exhaustively enumerated labelled trees.

Everything in here is exact: tree masses under the critical law, the size
law through the associated walk, the two re-rooting measure identities on
single-child-root trees, and the census of well-labelled trees that
underlies the quadrangulation counts.  These functions are the oracles that
the samplers are tested against, so they deliberately share no code with
the sampling paths beyond the tree classes themselves.

Measures on labelled trees are represented as dictionaries mapping an atom
(preorder counts, preorder labels) to its exact weight, a Fraction; two
measures agree for every functional exactly when the dictionaries are
equal.  Reports additionally spell out indicators of five families (shape,
leaf count, sorted label multiset, head label, atom) so a failure points at
something readable.  Each family is a key of an atom: a report puts a
measure's weights over one common denominator and, in one pass, adds each
atom's integer numerator to its key's sum in every family, so an
indicator's mass is a lookup and no functional is called per atom.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, Optional

from treesnake.gw_sampler import OffspringDistribution, StepDistribution
from treesnake.plane_tree import PlaneTree, enumerate_trees, leaves
from treesnake.spatial_tree import SpatialTree, reroot_at

RationalWeight = Fraction

Atom = tuple[tuple[int, ...], tuple]
# re-rooted counts and, per new vertex, the index of the old vertex it comes from
Plan = tuple[tuple[int, ...], tuple[int, ...]]
# a name and a map from labelled trees to ints
Functional = tuple[str, Callable[[SpatialTree], int]]


class IrrationalMass(ValueError):
    """Exact enumeration needs exact probabilities."""


def _frac(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def tree_weight(t: PlaneTree, mu: OffspringDistribution) -> Fraction:
    """Mass of one tree under the unconditioned critical law."""
    w = Fraction(1)
    for c in t.counts:
        w *= mu.exact_pmf(c)
    return w


def q_weight(t: PlaneTree, mu: OffspringDistribution) -> Fraction:
    """Relative mass under the single-child-root law: the root factor drops.

    Conditioning on a single-child root divides every mass by mu(1), so the
    weight of a tree is the product of mu over the non-root vertices.  This
    form stays meaningful even when mu(1) = 0.
    """
    if t.counts[0] != 1:
        return Fraction(0)
    w = Fraction(1)
    for c in t.counts[1:]:
        w *= mu.exact_pmf(c)
    return w


def _exact_steps(gamma: StepDistribution) -> list[tuple]:
    if not gamma.exact:
        raise IrrationalMass("the displacement law has no exact finite support")
    return gamma.exact_items()


def labelled_atoms(
    n: int,
    mu: OffspringDistribution,
    gamma: StepDistribution,
    x=0,
    root_single_child: bool = True,
) -> Iterator[tuple[SpatialTree, Fraction]]:
    """All labelled trees with n edges and their exact weights.

    Weights multiply the shape mass (root factor dropped for single-child
    roots) by the displacement probabilities edge by edge; they are
    relative weights of the conditioned laws, summing to the probability
    that the underlying unconditioned size is hit.
    """
    den, atoms = _atom_numerators(n, mu, gamma, x, root_single_child)
    for t, labels, num in atoms:
        yield SpatialTree(t, labels), Fraction(num, den)


def _atom_numerators(n: int, mu: OffspringDistribution, gamma: StepDistribution, x,
                     root_single_child: bool) -> tuple[int, Iterator]:
    """labelled_atoms in integers: one denominator, fixed before any atom,
    and the atoms as (shape, labels, weight numerator)."""
    steps = _exact_steps(gamma)
    weigh = q_weight if root_single_child else tree_weight
    shapes = [(t, w) for t in enumerate_trees(n + 1, root_single_child) if (w := weigh(t, mu))]
    shape_den = math.lcm(*(w.denominator for _, w in shapes))
    step_den = math.lcm(*(p.denominator for _, p in steps))
    steps = [(inc, p.numerator * step_den // p.denominator) for inc, p in steps]
    # each combination's probability once per n, not once per shape
    combos = [
        ([inc for inc, _ in combo], math.prod(p for _, p in combo))
        for combo in itertools.product(steps, repeat=n)
    ]

    def atoms() -> Iterator[tuple[PlaneTree, tuple, int]]:
        for t, w in shapes:
            shape_num = w.numerator * shape_den // w.denominator
            parent = t.parent_index
            for incs, p in combos:
                labels = [x] * (n + 1)
                for i in range(1, n + 1):
                    labels[i] = labels[parent[i]] + incs[i - 1]
                yield t, tuple(labels), shape_num * p

    return shape_den * step_den**n, atoms()


# ---------------------------------------------------------------------------
# size law


def _walk_point_mass(mu: OffspringDistribution, n: int) -> Fraction:
    """P(the associated walk is at -1 after n steps), by exact convolution."""
    dist: dict[int, Fraction] = {0: Fraction(1)}
    top = n  # a step above n - 2 cannot appear on a path ending at -1
    for _ in range(n):
        new: dict[int, Fraction] = {}
        for s, p in dist.items():
            for k in range(-1, top + 1):
                q = mu.step_pmf(k)
                if q:
                    new[s + k] = new.get(s + k, Fraction(0)) + p * q
        dist = {s: p for s, p in new.items() if s <= top}
    return dist.get(-1, Fraction(0))


def verify_size_law(mu: OffspringDistribution, n_max: int) -> dict:
    """Total tree mass at each size against the walk formula mass/n.

    Checks, for sizes 1..n_max, that the summed weights of all trees with n
    vertices equal the point mass of the walk at -1 after n steps, divided
    by n.
    """
    entries = []
    terms = 0
    for n in range(1, n_max + 1):
        lhs = Fraction(0)
        count = 0
        for t in enumerate_trees(n):
            lhs += tree_weight(t, mu)
            count += 1
        rhs = _walk_point_mass(mu, n) / n
        entries.append(
            {
                "n": n,
                "trees": count,
                "lhs": _frac(lhs),
                "rhs": _frac(rhs),
                "equal": lhs == rhs,
            }
        )
        terms += count
    return {
        "identity": "size-law",
        "n": n_max,
        "equal": all(e["equal"] for e in entries),
        "terms": terms,
        "entries": entries,
    }


# ---------------------------------------------------------------------------
# re-rooting identities


def _atom_key(s: SpatialTree) -> Atom:
    return (s.tree.counts, s.labels)


def _join(xs) -> str:
    return ",".join(map(str, xs))


# The indicator families of a report, in report order: per family, the key
# of an atom (None: the atom has none), how a key prints, and how many of
# the keys present, in sorted order, get an indicator.
_FAMILIES: dict[str, tuple[Callable[[Atom], object], Callable, Optional[int]]] = {
    "shape": (lambda a: a[0], _join, None),
    "leaves": (lambda a: a[0][1:].count(0), str, None),
    "labels": (lambda a: tuple(sorted(a[1])), _join, 24),
    # the contour sits at preorder vertex 1, the root's first child, at time 1
    "head-label": (lambda a: a[1][1] if len(a[0]) > 1 else None, str, None),
    "atom": (lambda a: a, lambda a: _join(a[0]) + "|" + _join(a[1]), 3),
}


def _pushforward(measure: dict[Atom, Fraction]) -> tuple[int, int, dict[str, dict]]:
    """A measure pushed forward by every family's key, in integer numerators.

    The weights go over their common denominator once and each atom adds
    its numerator to its key's sum in each family, so an indicator's mass
    is one lookup.  Returns the denominator, the total and the sums.
    """
    den = math.lcm(*(w.denominator for w in measure.values()))
    total = 0
    sums: dict[str, dict] = {family: {} for family in _FAMILIES}
    for atom, w in measure.items():
        num = w.numerator * (den // w.denominator)
        total += num
        for family, (key, _, _) in _FAMILIES.items():
            k = key(atom)
            sums[family][k] = sums[family].get(k, 0) + num
    return den, total, sums


def _indicators(sums: dict[str, dict]) -> list[tuple[str, str, object]]:
    """(name, family, key) of each indicator on the keys a pushforward hit."""
    rows = []
    for family, (_, show, limit) in _FAMILIES.items():
        keys = sorted(k for k in sums[family] if k is not None)[:limit]
        rows += [(f"{family}={show(k)}", family, k) for k in keys]
    return rows


def default_functionals(measure: dict[Atom, Fraction]) -> list[Functional]:
    """A report's functionals, as int-valued maps on labelled trees.

    The constant, then indicators of every shape, every leaf count, the
    first 24 sorted label multisets and every label read at contour time 1
    present on the measure's support, then point indicators of its first
    three atoms.
    """
    fns: list[Functional] = [("total-mass", lambda s: 1)]
    for name, family, k in _indicators(_pushforward(measure)[2]):
        key = _FAMILIES[family][0]
        fns.append((name, lambda s, key=key, k=k: int(key(_atom_key(s)) == k)))
    return fns


def _functional_report(lhs: dict[Atom, Fraction], rhs: dict[Atom, Fraction]) -> list[dict]:
    (lden, ltotal, lsums), (rden, rtotal, rsums) = _pushforward(lhs), _pushforward(rhs)
    masses = [("total-mass", ltotal, rtotal)] + [
        (name, lsums[family].get(k, 0), rsums[family].get(k, 0))
        for name, family, k in _indicators(rsums if rhs else lsums)
    ]
    rows = []
    for name, a, b in masses:
        a, b = Fraction(a, lden), Fraction(b, rden)
        rows.append({"name": name, "lhs": _frac(a), "rhs": _frac(b), "equal": a == b})
    return rows


def _reroot_plan(t: PlaneTree, v: int) -> Plan:
    """The shape-only part of re-rooting t at vertex index v.

    Returns the re-rooted counts and, for each new vertex in preorder, the
    index of the old vertex it comes from.  Re-rooting moves every label
    with its vertex and shifts all of them by minus the new root's label,
    so one reroot_at call on the labelling by vertex index reads the
    sources off as label + v.
    """
    s = reroot_at(SpatialTree(t, tuple(range(t.size))), v)
    return s.tree.counts, tuple(x + v for x in s.labels)


def _apply_plan(plan: Plan, labels: tuple) -> Atom:
    """The atom that reroot_at gives for these labels on the plan's shape."""
    counts, src = plan
    base = labels[src[0]]
    return counts, tuple(labels[j] - base for j in src)


def reroot_measures(
    n: int,
    mu: OffspringDistribution,
    gamma: StepDistribution,
    closed: bool = False,
) -> tuple[dict[Atom, Fraction], dict[Atom, Fraction], int]:
    """The two sides of a re-rooting identity as exact atomic measures.

    Open form (closed=False): push forward by re-rooting at the unique
    overall label argmin when it is a leaf, against the leaf-count-weighted
    restriction to strictly positive non-root labels.

    Closed form (closed=True): sum the push-forwards over every leaf that
    attains the overall minimum, against the leaf-count-weighted
    restriction to nonnegative non-root labels.

    Both run over single-child-root trees with n edges, root label 0, and
    return (lhs, rhs, atom count of the underlying enumeration).  Leaf sets
    are built once per shape and re-rooting plans once per (shape, leaf);
    each atom only reads its labels through them.
    """
    den, atoms = _atom_numerators(n, mu, gamma, 0, True)
    lhs: dict[Atom, int] = {}  # weight numerators over den
    rhs: dict[Atom, int] = {}
    terms = 0
    shape = None
    for t, labels, w in atoms:
        terms += 1
        if t is not shape:
            shape = t
            leafset = leaves(shape)
            plans: dict[int, Plan] = {}
        low = min(labels)
        argmin = [i for i, x in enumerate(labels) if x == low]
        if closed:
            tips = [v for v in argmin if v in leafset]
        else:
            tips = argmin if len(argmin) == 1 and argmin[0] in leafset else ()
        for v in tips:
            plan = plans.get(v)
            if plan is None:
                plan = plans[v] = _reroot_plan(shape, v)
            key = _apply_plan(plan, labels)
            lhs[key] = lhs.get(key, 0) + w
        # the root sits at 0, so the non-root labels are all positive exactly
        # when 0 is the minimum and only the root attains it (closed form:
        # nonnegative exactly when 0 is the minimum)
        if low == 0 and (closed or argmin == [0]):
            key = (shape.counts, labels)
            rhs[key] = rhs.get(key, 0) + w * len(leafset)
    lhs, rhs = ({key: Fraction(w, den) for key, w in side.items()} for side in (lhs, rhs))
    return lhs, rhs, terms


def _verify_reroot(
    n: int,
    mu: OffspringDistribution,
    gamma: StepDistribution,
    closed: bool,
) -> dict:
    lhs, rhs, terms = reroot_measures(n, mu, gamma, closed=closed)
    return {
        "identity": "reroot-closed" if closed else "reroot",
        "n": n,
        "mu": mu.describe(),
        "gamma": gamma.describe(),
        "equal": lhs == rhs,
        "terms": terms,
        "atoms": len(rhs),
        "functionals": _functional_report(lhs, rhs),
    }


def verify_reroot_identity(
    n: int,
    mu: OffspringDistribution,
    gamma: StepDistribution,
) -> dict:
    """Exact check of the open re-rooting identity at n edges."""
    return _verify_reroot(n, mu, gamma, closed=False)


def verify_reroot_identity_closed(
    n: int,
    mu: OffspringDistribution,
    gamma: StepDistribution,
) -> dict:
    """Exact check of the closed (summed over argmin leaves) identity."""
    return _verify_reroot(n, mu, gamma, closed=True)


# ---------------------------------------------------------------------------
# well-labelled census and conditioned label law


def count_well_labelled(n: int) -> tuple[int, int, Fraction]:
    """Labelled trees with n edges, root label 1, steps in {-1, 0, 1}.

    Returns (all such trees, those with every label at least 1, their
    ratio).  The positive ones are the well-labelled trees, in bijection
    with rooted quadrangulations with n faces.

    Every shape has 3^n labellings.  Its positive ones are counted by a
    label DP, children before parents: f_v(l), the positive labellings of
    the subtree below vertex v given label l at v, is the product over the
    children c of f_c(l-1) + f_c(l) + f_c(l+1), the term at label 0
    dropped; a leaf has f = 1, and the shape has f_root(1).  A vertex at
    depth d is reached with label at most d + 1, so labels 1..n+1 suffice.
    """
    if n < 0:
        raise ValueError("edge count must be nonnegative")
    if n == 0:
        return 1, 1, Fraction(1)
    shapes = list(enumerate_trees(n + 1))
    count_all = len(shapes) * 3**n
    count_pos = 0
    ones = [1] * (n + 1)
    for t in shapes:
        # a reverse preorder pass finds each vertex's children on top of a
        # stack, as their sums g_c(l) = f_c(l-1) + f_c(l) + f_c(l+1), at
        # index l - 1 for l = 1..n+1
        sums: list[list[int]] = []
        for k in reversed(t.counts):
            f = ones
            for _ in range(k):
                f = [a * b for a, b in zip(f, sums.pop())]
            g = [0, *f, 0]
            sums.append([a + b + c for a, b, c in zip(g, g[1:], g[2:])])
        count_pos += f[0]  # the root's product, at label 1
    return count_all, count_pos, Fraction(count_pos, count_all)


class UnreachableSizeError(ValueError):
    def __init__(self, n: int):
        super().__init__(f"size {n + 1} has probability zero")


def conditional_label_law(
    n: int,
    mu: OffspringDistribution,
    gamma: StepDistribution,
    x,
) -> dict[Atom, Fraction]:
    """Exact law of the labelled tree given n edges and positive labels.

    Atoms are (counts, labels); weights are normalized to total mass one.
    The conditioning keeps non-root labels strictly positive, the root
    being pinned at x.
    """
    raw: dict[Atom, Fraction] = {}
    for s, w in labelled_atoms(n, mu, gamma, x=x, root_single_child=False):
        if all(v > 0 for v in s.labels[1:]):
            raw[_atom_key(s)] = raw.get(_atom_key(s), Fraction(0)) + w
    total = sum(raw.values(), Fraction(0))
    if total == 0:
        raise UnreachableSizeError(n)
    return {k: w / total for k, w in raw.items()}
