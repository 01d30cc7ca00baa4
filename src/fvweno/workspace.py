"""Reused buffers: every temporary of a tendency, kept from call to call and
planned by lifetime.

A kernel (``fill_ghosts``, ``interface_states``, ``gauss_point_values``,
``nonlinear_weights``, ``henrick_map``, ``lf_flux``) takes a
:class:`Workspace` as its keyword-only ``out`` and writes its result and all
of its temporaries into buffers kept there.  Without one it makes a fresh
workspace, so what it returns belongs to the caller.

The lifetime rule.  Results are never shared: the ``out*`` buffers, the
interface traces, the ghost-filled field, the Lax-Friedrichs flux and
whatever an operator keeps in a workspace have memory of their own.  The
temporaries of a reconstruction (indicators, weight factor, weights, the
Henrick map, candidates) are carved from three regions of memory, as
:data:`LAYOUT` sets out; two temporaries of one region are never live at
once, so a region is as large as its largest user.  ``Workspace(scratch=ws)``
carves from the regions of ``ws``: kernels on the two may run one after the
other, never one inside the other, and a temporary (the weights included)
holds only until the next kernel call on either.

The semi-discrete operators and ``rk3_step`` fetch the calling thread's
workspace for the padded field shape once per call, with
:func:`workspace`.  Every operator on that shape shares it, so an array
read out of it holds only until the next call on that shape in that
thread; the operators copy what they hand out.  A thread keeps the
workspaces of its :data:`SHAPES` most recently used shapes.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict

import numpy as np

# Workspaces a thread keeps, one per padded field shape, least recently
# used dropped first.
SHAPES = 8

# The region of each temporary of a layer, in the order the layer takes
# them.  A reconstruction runs the layers in this order:
#   indicators  d, curv and slope (a) make beta (b);
#   factor      beta makes phi (a), with tau and aux (c) where the family
#               reads them;
#   weights     phi makes omega (b); each normalisation sums into total (c);
#   henrick     M maps omega through g (a) and den (c), then normalises again;
#   combine     the candidates (a) and omega make the result.
# Each temporary is dead before the next one of its region is written.
LAYOUT = {
    "indicators": "aaab",
    **{f"factor_{family}": "acc" for family in ("js", "m", "z", "zr", "zl")},
    "weights": "bc",
    "linear_weights": "b",
    "henrick": "ac",
    "combine": "a",
}
# Carved buffers start on 64-byte boundaries (8 float64 values).
_ALIGN = 8


class _Regions:
    """The memory of the regions and the workspaces that carve from it."""

    def __init__(self):
        self.memory = {}
        self.members = weakref.WeakSet()


class Workspace:
    """A namespace of reused buffers.

    Each kernel keeps its buffers in one attribute named after its layer,
    made by the first call that finds it missing, so every call given one
    workspace must pass arrays of the shapes the first one did.  A layer
    named in :data:`LAYOUT` makes its temporaries with :meth:`take`.
    """

    def __init__(self, scratch=None):
        self._regions = _Regions() if scratch is None else scratch._regions
        self._regions.members.add(self)

    def take(self, layer, *shapes):
        """Temporaries of ``layer`` of the given shapes (None for a shape
        gives None), carved from the regions :data:`LAYOUT` names for it.

        A region too small for them is replaced by a larger one, and every
        layer that carved from the old one, in every workspace sharing it,
        is dropped, to be made again on its next call.
        """
        regions = self._regions
        placed, ends = [], {}
        for region, shape in zip(LAYOUT[layer], shapes, strict=True):
            if shape is None:
                placed.append(None)
                continue
            start = ends.get(region, 0)
            ends[region] = start + -(-math.prod(shape) // _ALIGN) * _ALIGN
            placed.append((region, start, shape))
        for region, end in ends.items():
            if region not in regions.memory or regions.memory[region].size < end:
                for ws in regions.members:
                    for name, used in LAYOUT.items():
                        if region in used:
                            ws.__dict__.pop(name, None)
                regions.memory[region] = np.empty(end)
        return [None if p is None
                else regions.memory[p[0]][p[1]:p[1] + math.prod(p[2])].reshape(p[2])
                for p in placed]


class _Store(threading.local):
    def __init__(self):
        self.spaces = OrderedDict()


_STORE = _Store()


def workspace(shape):
    """The calling thread's workspace for padded fields of ``shape``."""
    spaces = _STORE.spaces
    ws = spaces.get(shape)
    if ws is None:
        ws = spaces[shape] = Workspace()
        if len(spaces) > SHAPES:
            spaces.popitem(last=False)
    else:
        spaces.move_to_end(shape)
    return ws
