"""Synthetic rate tables: measurement-layer tests at campus scale without
simulating SNMP traffic for hundreds of agents."""

import zlib
from typing import Dict, Tuple

from repro.core.counters import resolve_counter_source
from repro.core.poller import InterfaceRates, RateTable
from repro.topology.model import TopologySpec


def populate_rates(
    spec: TopologySpec,
    rates: RateTable,
    time: float,
    interval: float = 2.0,
    seed: int = 0,
    utilisation: float = 0.2,
) -> int:
    """Deterministic synthetic samples for every counter source.

    Each measurable connection's counter source gets one
    :class:`InterfaceRates` at ``time``; the traffic figure is a stable
    hash-derived fraction of ``utilisation`` times the interface speed,
    so repeated calls with the same ``seed`` produce identical tables.
    Returns the number of samples written (sources shared by several
    connections are written once).
    """
    seen: Dict[Tuple[str, int], bool] = {}
    for conn in spec.connections:
        source = resolve_counter_source(spec, conn)
        if source is None or source.key() in seen:
            continue
        seen[source.key()] = True
        node_spec = spec.node(source.node)
        speed = node_spec.interface(source.endpoint.interface).speed_bps
        # Cheap deterministic pseudo-random fraction in (0, 1] -- crc32,
        # not hash(), which is salted per process.
        basis = zlib.crc32(f"{seed}:{source.node}:{source.if_index}".encode()) & 0xFFFF
        fraction = (basis + 1) / 65536.0
        bytes_per_s = utilisation * fraction * speed / 8.0
        rates.update(
            InterfaceRates(
                node=source.node,
                if_index=source.if_index,
                time=time,
                interval=interval,
                in_bytes_per_s=bytes_per_s / 2.0,
                out_bytes_per_s=bytes_per_s / 2.0,
                in_pkts_per_s=bytes_per_s / 1500.0,
                out_pkts_per_s=bytes_per_s / 1500.0,
            )
        )
    return len(seen)
