"""Reused buffers: every temporary of a tendency, kept from call to call.

A kernel (``fill_ghosts``, ``interface_states``, ``gauss_point_values``,
``nonlinear_weights``, ``henrick_map``, ``lf_flux``) takes a
:class:`Workspace` as its keyword-only ``out`` and writes its result and all
of its temporaries into buffers kept there.  Without one it makes a fresh
workspace, so what it returns belongs to the caller.

The semi-discrete operators and ``rk3_step`` fetch the calling thread's
workspace for the padded field shape once per call, with
:func:`workspace`.  Every operator on that shape shares it, so an array
read out of it holds only until the next call on that shape in that
thread; the operators copy what they hand out.  A thread keeps the
workspaces of its :data:`SHAPES` most recently used shapes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

# Workspaces a thread keeps, one per padded field shape, least recently
# used dropped first.
SHAPES = 8


class Workspace:
    """A namespace of reused buffers.

    Each kernel keeps its buffers in attributes of its own, made by the
    first call that finds them missing, so every call given one workspace
    must pass arrays of the shapes the first one did.

    ``Workspace(share=ws)`` reads every attribute it lacks from ``ws``,
    except results (names starting with ``out``): two calls whose results
    must both live on can share their temporaries.
    """

    def __init__(self, share=None):
        self._share = share

    def __getattr__(self, name):
        # reached only for a missing attribute
        share = self.__dict__.get("_share")
        if share is None or name.startswith("out"):
            raise AttributeError(name)
        value = getattr(share, name)
        setattr(self, name, value)
        return value


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
