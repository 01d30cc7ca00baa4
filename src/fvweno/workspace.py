"""Reused buffers and the views bound to them: every temporary of a
tendency, kept from call to call and planned by lifetime.

A kernel (``fill_ghosts``, ``interface_states``, ``gauss_point_values``,
``nonlinear_weights``, ``lf_flux``, ``max_wave_speed``) takes a
:class:`Workspace` as its keyword-only ``out`` and writes its result and
all of its temporaries into buffers kept there.  Without one it makes a
fresh workspace, so what it returns belongs to the caller.  The model layer
below them takes arrays: ``lf_flux`` hands the model flux its stacked
traces and their flux buffer (temporaries), and ``max_wave_speed`` hands the
model's wave-speed bound its scratch.

The lifetime rule.  Results are never shared: the ``out*`` buffers, the
interface traces, the ghost-filled field, the Lax-Friedrichs flux and
whatever an operator keeps in a workspace have memory of their own.  The
temporaries of a reconstruction (indicators, weight factor, weights, the
Henrick map, candidates) and of the wave-speed bound and the Lax-Friedrichs
flux are carved from three regions of memory, as
:data:`LAYOUT` sets out; two temporaries of one region are never live at
once, so a region is as large as its largest user.  ``Workspace(scratch=ws)``
carves from the regions of ``ws``: kernels on the two may run one after the
other, never one inside the other, and a temporary (the weights included)
holds only until the next kernel call on either.

The binding rule.  A layer keeps a view of its input or of its buffers
only when a later kernel binds to that same object (``lf_flux`` to the
traces and to the Gauss-point values, every layer to its input), when the
view holds memory (results, temporaries), or when slicing it on every call
would cost a measurable share of a 1D step at the paper's sizes (the
indicators alone read a dozen views, at about 0.15-0.3 us each, against
about 100 us a step at N = 20).  Every other view is sliced on the call.
The views kept are bound to the array objects the layer is called with
(and to the read-only linear-weight tables), made by :meth:`Workspace.bind`
the first time a layer meets them; they live in the layer's attribute.
A region that grows drops every :data:`LAYOUT` layer of every workspace
sharing it, so no view kept holds the memory it gave up; regions grow
only while a workspace warms up, so steady stepping binds nothing.

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
#   indicators  d, curv and slope (a), with 3 d (c), make beta (b);
#   factor      beta makes phi (a), with tau and aux (c) where the family
#               reads them; one layer for every family, bound to beta and
#               the family;
#   weights     phi makes omega (b), every linear-weight set of a window in
#               one stack (the linear family copies its table); each
#               normalisation sums into total (c); the Gauss pass then
#               folds the split centre pair of omega in place;
#   henrick     M maps omega through g (a) and den (c), then normalises again;
#   combine     the candidates (a) and omega make the result.
# The wave-speed bound (speed) and the LF flux (lf) run between reconstructions, in a.
# Each temporary is dead before the next one of its region is written.
LAYOUT = {
    "indicators": "aaacb",
    "factor": "acc",
    "weights": "bc",
    "henrick": "ac",
    "combine": "a",
    "speed": "a",
    "lf": "aaa",
}


class Workspace:
    """A namespace of reused buffers.

    Each kernel keeps its buffers and views in one attribute named after
    its layer: a tuple of the buffers, then the views, then what the views
    are bound to, made by :meth:`bind` when a call finds it missing or
    bound to other arrays.  A layer named in :data:`LAYOUT` makes its
    temporaries with :meth:`take`.
    """

    def __init__(self, scratch=None):
        self._memory, self._sharers = (({}, weakref.WeakSet()) if scratch is None
                                       else (scratch._memory, scratch._sharers))
        self._sharers.add(self)

    def take(self, layer, *shapes):
        """Temporaries of ``layer`` of the given shapes (None for a shape
        gives None), carved end to end from the regions :data:`LAYOUT` names
        for it.

        A region too small for them is replaced by a larger one, and every
        :data:`LAYOUT` layer of every workspace sharing the regions is
        dropped, to be bound again on its next call.
        """
        memory = self._memory
        placed, ends = [], {}
        for region, shape in zip(LAYOUT[layer], shapes, strict=True):
            if shape is None:
                placed.append(None)
                continue
            start = ends.get(region, 0)
            ends[region] = start + math.prod(shape)
            placed.append((region, start, shape))
        for region, end in ends.items():
            if region not in memory or memory[region].size < end:
                for ws in self._sharers:
                    for name in LAYOUT:
                        ws.__dict__.pop(name, None)
                memory[region] = np.empty(end)
        return [None if p is None
                else memory[p[0]][p[1]:p[1] + math.prod(p[2])].reshape(p[2])
                for p in placed]

    def result(self, layer, index, shape):
        """The result buffer at ``index`` of the binding of ``layer`` if it
        has ``shape``, else a new one: a layer bound anew keeps its results.
        """
        old = self.__dict__.get(layer)
        buffer = None if old is None else old[index]
        return buffer if buffer is not None and buffer.shape == shape else np.empty(shape)

    def bind(self, layer, build, *args):
        """Bind ``layer`` anew: ``build(self, *args)`` makes its buffers,
        then its views, then what they are bound to, in one tuple that
        replaces the layer's attribute.  Returns the tuple.
        """
        views = self.__dict__[layer] = build(self, *args)
        return views


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
