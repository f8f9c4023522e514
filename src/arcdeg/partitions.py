"""Integer partitions and the small amount of partition arithmetic the
package needs: weights, moments, containment and the column-strip test.

Partitions are stored dense and canonical: weakly decreasing, no zero
parts.  Every constructor normalizes, so two equal multisets of parts
always compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TypeMismatch


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing sequence of positive integers (possibly empty).

    The constructor accepts parts in any order and drops zeros, so
    ``Partition((1, 3, 0, 3))`` equals ``Partition((3, 3, 1))``.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        cleaned = []
        for p in self.parts:
            if type(p) is not int or p < 0:
                raise ValueError(f"partition parts must be nonnegative integers, got {p!r}")
            if p > 0:
                cleaned.append(p)
        cleaned.sort(reverse=True)
        object.__setattr__(self, "parts", tuple(cleaned))

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the comma-separated text form, e.g. ``"4,3,3,2,1"``.

        The empty string is the empty partition.
        """
        text = text.strip()
        if not text:
            return cls()
        return cls(tuple(int(tok) for tok in text.split(",")))

    def to_text(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def part_at(self, i: int) -> int:
        """The ``i``-th part (0-based), or 0 past the end."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    @property
    def max_part(self) -> int:
        return self.parts[0] if self.parts else 0

    def weight(self) -> int:
        """Sum of all parts."""
        return sum(self.parts)

    def moment(self) -> int:
        """Weighted sum where the i-th largest part counts with weight i - 1."""
        return sum(p * i for i, p in enumerate(self.parts))

    def contains(self, other: "Partition") -> bool:
        """Componentwise containment: every part of ``other`` fits under this one."""
        return all(other.parts[i] <= self.part_at(i) for i in range(len(other.parts)))


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
    return all(gamma.part_at(i) >= b for i, b in enumerate(beta.parts[1:]))
