"""numpy, imported when an array is first computed.

A monitor that computes no array -- a plane of any kind without a
matrix or probing -- never pays numpy's import or its memory.  Modules
take ``np`` from here; the real import runs on the first attribute read
(``np.asarray``, ``np.ndarray``...).  A name used at import time must
not read ``np`` (a type alias names ``"np.ndarray"`` as a string; a NaN
constant is ``math.nan``).
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
