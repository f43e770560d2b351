"""Named, possibly overlapping sets of feature indices.

A GroupStructure is one flat incidence array: group p owns members
indices[offsets[p]:offsets[p + 1]]. Group objects are built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Group:
    name: str
    members: tuple  # sorted, duplicate-free feature indices

    @classmethod
    def of(cls, name, indices):
        return cls(name=str(name), members=tuple(sorted(set(int(i) for i in indices))))

    def __len__(self):
        return len(self.members)


class GroupStructure:
    """Ordered list of groups. Overlap between groups is allowed.

    Group names are unique. Empty groups only arise transiently while a
    selection loop strips already-activated indices out of the remaining
    groups; fresh structures should not contain them.
    """

    def __init__(self, groups=()):
        names, sizes, indices = [], [], []
        seen = set()
        for g in groups:
            if not isinstance(g, Group):
                g = Group.of(*g)
            if g.name in seen:
                raise ValueError(f"duplicate group name {g.name!r}")
            seen.add(g.name)
            names.append(g.name)
            sizes.append(len(g.members))
            indices.extend(g.members)
        self._names = names
        self.offsets = np.cumsum([0] + sizes, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)

    @classmethod
    def from_arrays(cls, names, offsets, indices):
        """Structure over flat arrays whose names are already unique."""
        out = cls.__new__(cls)
        out._names, out.offsets, out.indices = names, offsets, indices
        return out

    def __len__(self):
        return len(self._names)

    def __iter__(self):
        flat, offsets = self.indices.tolist(), self.offsets.tolist()
        for pos, name in enumerate(self._names):
            yield Group(name, tuple(flat[offsets[pos]:offsets[pos + 1]]))

    def __getitem__(self, pos):
        pos = range(len(self._names))[pos]
        lo, hi = self.offsets[pos], self.offsets[pos + 1]
        return Group(self._names[pos], tuple(self.indices[lo:hi].tolist()))

    def names(self):
        return list(self._names)

    def validate_indices(self, n_cols, bias_col=None):
        """Check every member index against the feature count and bias."""
        for g in self:
            for j in g.members:
                if not 0 <= j < n_cols:
                    raise ValueError(
                        f"group {g.name!r}: index {j} out of range for "
                        f"{n_cols} features")
                if bias_col is not None and j == bias_col:
                    raise ValueError(
                        f"group {g.name!r}: bias column {j} cannot be grouped")
        return self

    def member_sets(self):
        return [set(g.members) for g in self]
