"""Tuple addresses of plane-tree vertices, an independent reference for the tests.

The library names every vertex by its preorder index.  The Neveu address
names it by its path from the root instead: the root is the empty tuple
(), and v + (i,) is the i-th child of v.  Sorting addresses by tuple
comparison (a prefix before its extensions) is preorder, so a stack pass
over the child counts lists them, and the helpers below read subtree
sizes, truncations and the re-rooted place of the old root off them,
with no use of the library's index kernels.
"""

from __future__ import annotations

from typing import Sequence

Address = tuple[int, ...]


def addresses(counts: Sequence[int]) -> list[Address]:
    """The address of each vertex of valid preorder counts, in preorder."""
    out: list[Address] = [()]
    # [address, children spawned so far, children still owed]
    stack: list[list] = [[(), 0, counts[0]]]
    for c in counts[1:]:
        while stack[-1][2] == 0:
            stack.pop()
        top = stack[-1]
        top[1] += 1
        top[2] -= 1
        child = top[0] + (top[1],)
        out.append(child)
        stack.append([child, 0, c])
    return out


def subtree_sizes(counts: Sequence[int]) -> list[int]:
    """Each vertex's subtree size: the number of addresses it is a prefix of."""
    vs = addresses(counts)
    return [sum(1 for u in vs if u[: len(v)] == v) for v in vs]


def truncate(counts: Sequence[int], k: int) -> tuple[int, ...]:
    """Counts of the tree with every strict descendant of vertex k removed."""
    end = k + subtree_sizes(counts)[k]
    return tuple(counts[:k]) + (0,) + tuple(counts[end:])


def companion(v: Address) -> Address:
    """Address of the old root after re-rooting at v = (j1, ..., jp), p >= 1:
    (1, jp, ..., j2)."""
    return (1,) + tuple(reversed(v[1:]))
