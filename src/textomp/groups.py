"""Named, possibly overlapping sets of feature indices.

A GroupStructure is one flat incidence array: group p owns members
indices[offsets[p]:offsets[p + 1]], which `members(p)` returns as a view.
Group objects are built on demand, at the file and API boundary only.
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
        groups = [g if isinstance(g, Group) else Group.of(*g) for g in groups]
        self._names = check_unique_names([g.name for g in groups])
        self.offsets = np.cumsum([0] + [len(g) for g in groups],
                                 dtype=np.int64)
        self.indices = np.array([j for g in groups for j in g.members],
                                dtype=np.int64)

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
        return Group(self._names[pos], tuple(self.members(pos).tolist()))

    def members(self, pos):
        """Member indices of the group at non-negative position pos, as a
        view of the flat array."""
        return self.indices[self.offsets[pos]:self.offsets[pos + 1]]

    def names(self):
        return list(self._names)

    def validate_indices(self, n_cols, bias_col=None):
        """Check every member index against the feature count and bias,
        and that no group holds an index twice."""
        error = member_error(self.indices, n_cols, bias_col)
        if error is None:
            # in range now, so group * n_cols + index is one key per member
            key = np.repeat(np.arange(len(self)), np.diff(self.offsets)) \
                * n_cols + self.indices
            order = np.argsort(key, kind="stable")
            repeats = order[1:][np.diff(key[order]) == 0]
            if repeats.size:
                pos = int(repeats.min())
                error = pos, f"index {self.indices[pos]} listed twice"
        if error is not None:
            pos, message = error
            owner = int(np.searchsorted(self.offsets, pos, side="right")) - 1
            raise ValueError(f"group {self._names[owner]!r}: {message}")
        return self


def check_unique_names(names):
    """names, after raising on the first one that repeats an earlier one."""
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate group name {name!r}")
        seen.add(name)
    return names


def member_error(indices, n_cols, bias_col=None):
    """(position, message) of the first index that is out of range for
    n_cols features or is the bias column, which no group may hold; None
    when every index may be grouped."""
    indices = np.asarray(indices)  # object dtype past int64: still exact
    bad = (indices < 0) | (indices >= n_cols)
    if bias_col is not None:
        bad |= indices == bias_col
    if not bad.any():
        return None
    pos = int(np.argmax(bad))
    j = int(indices[pos])
    if not 0 <= j < n_cols:
        return pos, f"index {j} out of range for {n_cols} features"
    return pos, f"bias column {j} cannot be grouped"
