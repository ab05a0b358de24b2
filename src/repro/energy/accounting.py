"""Folding the event stream into energy: the accountant.

The simulator already counts every event the energy model prices — hits,
misses, refills, drains, victims, TLB walks, cycles — in
:class:`~repro.core.stats.SimStats`.  The accountant is the (exact,
integer) linear map from that counter vector to the per-class energy
fields of the same stats object:

====================  =====================================================
energy class          counted by
====================  =====================================================
``energy_l1i_fj``     ``instructions`` (fetch), ``l1i_misses`` (line fill)
``energy_l1d_fj``     ``loads``/``stores`` (access), ``l2d_accesses`` (fill)
``energy_l2_fj``      ``l2i_accesses``, ``l2d_accesses``,
                      ``l2_write_accesses``
``energy_bus_fj``     the same three — priced at the wire, not the array
``energy_wb_fj``      ``l2_write_accesses`` (entry bookkeeping)
``energy_mem_fj``     ``l2i/l2d/l2_write_misses`` (fetch) +
                      ``l2i/l2d/l2_write_dirty_victims`` (write-back)
``energy_tlb_fj``     ``itlb/dtlb_probes`` + ``itlb/dtlb_misses``
``energy_static_fj``  ``cycles``
====================  =====================================================

Because the map is linear and the weights are integers, two engines that
agree on the counters (the lockstep contract) agree on the energy *bit
for bit*, and :meth:`account` is idempotent — it overwrites rather than
accumulates, so both engines simply call it once per slice from their
epilogues.  That single call per slice is the entire runtime cost: the
instructions the batched engine skips are accounted in bulk by
construction, and a run without a model never executes any of this.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.energy.model import (
    DEFAULT_TECHNOLOGY,
    EnergyModel,
    derive_energy_model,
)
from repro.errors import ConfigurationError

#: Report order of the energy classes (``SimStats.energy_breakdown_pj``).
ENERGY_CLASSES = ("l1i", "l1d", "l2", "bus", "wb", "mem", "tlb", "static")

ENERGY_CLASS_LABELS = {
    "l1i": "L1-I array",
    "l1d": "L1-D array",
    "l2": "L2 arrays",
    "bus": "interconnect",
    "wb": "write buffer",
    "mem": "main memory",
    "tlb": "TLB",
    "static": "static/leakage",
}


class EnergyAccountant:
    """Applies one :class:`EnergyModel` to a stats object, in place."""

    __slots__ = ("model",)

    def __init__(self, model: EnergyModel):
        self.model = model

    def account(self, st) -> None:
        """Set every ``energy_*`` field of ``st`` from its counters.

        Idempotent (pure function of the counters), so engines call it
        at every slice epilogue without ordering concerns; the sampler,
        ticking after the slice, always sees fresh totals.
        """
        m = self.model
        st.energy_l1i_fj = (st.instructions * m.l1i_fetch_fj
                            + st.l1i_misses * m.l1i_fill_fj)
        st.energy_l1d_fj = (st.loads * m.l1d_read_fj
                            + st.stores * m.l1d_write_fj
                            + st.l2d_accesses * m.l1d_fill_fj)
        st.energy_l2_fj = (st.l2i_accesses * m.l2i_access_fj
                           + st.l2d_accesses * m.l2d_access_fj
                           + st.l2_write_accesses * m.l2w_access_fj)
        st.energy_bus_fj = (st.l2i_accesses * m.bus_i_fill_fj
                            + st.l2d_accesses * m.bus_d_fill_fj
                            + st.l2_write_accesses * m.bus_drain_fj)
        st.energy_wb_fj = st.l2_write_accesses * m.wb_entry_fj
        st.energy_mem_fj = (
            (st.l2i_misses + st.l2d_misses + st.l2_write_misses)
            * m.mem_fetch_fj
            + (st.l2i_dirty_victims + st.l2d_dirty_victims
               + st.l2_write_dirty_victims) * m.mem_writeback_fj)
        st.energy_tlb_fj = ((st.itlb_probes + st.dtlb_probes)
                            * m.tlb_probe_fj
                            + (st.itlb_misses + st.dtlb_misses)
                            * m.tlb_refill_fj)
        st.energy_static_fj = st.cycles * m.static_fj_per_cycle


def resolve_accountant(energy, config) -> Optional[EnergyAccountant]:
    """Build the accountant for an ``energy=`` argument.

    Accepts ``None`` (accounting disabled), a technology name from
    :data:`~repro.energy.model.ENERGY_TECHNOLOGIES`, or a ready
    :class:`EnergyModel`.
    """
    if energy is None:
        return None
    if isinstance(energy, EnergyAccountant):
        return energy
    if isinstance(energy, EnergyModel):
        return EnergyAccountant(energy)
    if isinstance(energy, str):
        return EnergyAccountant(derive_energy_model(config, energy))
    raise ConfigurationError(
        f"energy must be None, a technology name, or an EnergyModel "
        f"(got {type(energy).__name__})")


def breakdown_pj(st) -> Dict[str, float]:
    """Per-class energy of a stats object, in picojoules."""
    return {cls: getattr(st, f"energy_{cls}_fj") / 1000.0
            for cls in ENERGY_CLASSES}


__all__ = ["ENERGY_CLASSES", "ENERGY_CLASS_LABELS", "EnergyAccountant",
           "resolve_accountant", "breakdown_pj", "DEFAULT_TECHNOLOGY"]
