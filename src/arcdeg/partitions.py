"""Integer partitions and the small amount of partition arithmetic the
package needs: weights, moments, containment and the column-strip test.

A partition is the tuple of its parts, stored dense and canonical:
weakly decreasing, no zero parts.  The constructor normalizes, so two
equal multisets of parts always compare equal, and a partition compares,
hashes and sorts like the plain tuple of its parts, its own key in every
table.  Callers read the parts from the tuple itself, and so do
containment and the strip test: each compares two tuples part by part
in one C-level ``map``, after a length check that stands for the zero
parts past the end of the shorter one.

Two builders make partitions that are canonical by construction and
skip the constructor through ``tuple.__new__``:

* ``verify._partitions_below`` walks parts that are each positive and at
  most the part before them;
* ``moves._node_dims`` builds each subspace type as twos followed by
  ones.
"""

from __future__ import annotations

from operator import ge, le, mul

from .errors import TypeMismatch


class Partition(tuple):
    """A weakly decreasing sequence of positive integers (possibly empty).

    The constructor accepts parts in any order and drops zeros, so
    ``Partition((1, 3, 0, 3))`` equals ``Partition((3, 3, 1))``.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        cleaned = []
        for p in parts:
            if type(p) is not int or p < 0:
                raise ValueError(f"partition parts must be nonnegative integers, got {p!r}")
            if p > 0:
                cleaned.append(p)
        cleaned.sort(reverse=True)
        return tuple.__new__(cls, cleaned)

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(parts)

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the comma-separated text form, e.g. ``"4,3,3,2,1"``.

        The empty string is the empty partition.
        """
        text = text.strip()
        if not text:
            return cls()
        return cls([int(tok) for tok in text.split(",")])

    def to_text(self) -> str:
        return ",".join(str(p) for p in self)

    @property
    def max_part(self) -> int:
        return self[0] if self else 0

    def weight(self) -> int:
        """Sum of all parts."""
        return sum(self)

    def moment(self) -> int:
        """Weighted sum where the i-th largest part counts with weight i - 1."""
        return sum(map(mul, self, range(len(self))))

    def contains(self, other: "Partition") -> bool:
        """Componentwise containment: every part of ``other`` fits under this one."""
        return len(other) <= len(self) and all(map(le, other, self))


def require_contains(beta: Partition, gamma: Partition) -> None:
    """Raise :class:`TypeMismatch` unless gamma is contained in beta."""
    if not beta.contains(gamma):
        raise TypeMismatch(f"{gamma.to_text() or '()'} is not contained in {beta.to_text() or '()'}")


def is_column_strip(beta: Partition, gamma: Partition) -> bool:
    """True when the skew diagram beta/gamma has at most one box per
    column, that is, when gamma_i >= beta_(i+1) for every i (gamma
    interlaces beta; Macdonald, *Symmetric Functions and Hall
    Polynomials*, I.1).  Raises :class:`TypeMismatch` unless gamma is
    contained in beta."""
    require_contains(beta, gamma)
    return len(gamma) + 1 >= len(beta) and all(map(ge, gamma, beta[1:]))
