"""The from-scratch reference the incremental dataflow is held bit-identical to.

``BandwidthMatrix.snapshot`` composes reports from bound, memoized cache
entries; the reference re-traverses nothing cleverly and measures every
pair with ``measure_path(..., fresh=True)``, which bypasses every cache.
"""

from repro.core.matrix import MatrixSnapshot
from repro.core.traversal import NoPathError, find_path


def reference_paths(matrix):
    """``{(a, b): connection list | None}`` on the matrix's current graph."""
    paths = {}
    for i, a in enumerate(matrix.hosts):
        for b in matrix.hosts[i + 1:]:
            try:
                paths[(a, b)] = find_path(matrix.graph, a, b)
            except NoPathError:
                paths[(a, b)] = None
    return paths


def reference_snapshot(matrix, time, paths=None):
    """What ``matrix.snapshot(time)`` must equal, computed from scratch.

    ``paths`` lets a caller on a static topology traverse once
    (:func:`reference_paths`) and time only the measuring.
    """
    if paths is None:
        paths = reference_paths(matrix)
    measure = matrix.calculator.measure_path
    reports = {
        (a, b): None
        if path is None
        else measure(path, a, b, time=time, name=f"matrix:{a}<->{b}", fresh=True)
        for (a, b), path in paths.items()
    }
    return MatrixSnapshot(hosts=list(matrix.hosts), time=time, reports=reports)
