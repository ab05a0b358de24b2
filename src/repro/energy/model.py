"""The energy model: per-event costs derived from the technology substrate.

An :class:`EnergyModel` is a frozen vector of *integer femtojoule* costs,
one per class of memory-system event, derived from the same technology
description (:mod:`repro.tech`) that gives the simulator its cycle counts.
Integer costs are the load-bearing choice: total energy becomes an exact
integer linear function of the :class:`~repro.core.stats.SimStats` event
counters, so the reference and batched engines — which agree on every
counter by the lockstep contract — agree on every energy figure *exactly*,
and a disabled run (no model) is bit-identical to a run that predates the
subsystem.

A model is selected by technology name (:data:`ENERGY_TECHNOLOGIES`):

* ``"paper"`` — the machine the paper builds: GaAs L1 on the MCM, BiCMOS
  L2 on the board.  Fast and hot up close, slow and cool behind the
  connector.
* ``"all-gaas"`` — every array in GaAs on the MCM: the lowest-latency L2
  money can buy, paid for in watts of DCFL standby current.
* ``"bicmos"`` — every array in BiCMOS on the board: the frugal machine;
  the L1 arrays still cycle with the CPU (the clock is the CPU's), but
  everything beyond them is slow.

The ``pareto`` experiment sweeps these names against L2 geometry, deriving
*both* the timing (via :func:`repro.tech.timing.derive_cache_access`) and
the energy from each technology, which is what makes the CPI-vs-EPI
frontier a real trade-off rather than two decoupled columns.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.tech.energy import (
    MAIN_MEMORY_ENERGY,
    TAG_PROBE_PJ,
    TLB_PROBE_PJ,
    TLB_REFILL_PJ,
    WB_ENTRY_PJ,
    sram_energy,
    wire_energy,
)
from repro.tech.mcm import MCM, PCB, Mounting
from repro.tech.sram import (
    BICMOS_8KX8,
    DATA_PATH_BITS,
    GAAS_1KX32,
    SramPart,
    chips_needed,
)
from repro.tech.timing import CYCLE_NS

#: fJ per pJ; models are quantized to integer femtojoules.
FJ_PER_PJ = 1000.0


@dataclass(frozen=True)
class EnergyTechnology:
    """A technology point: which part and mounting build each level."""

    name: str
    l1_part: SramPart
    l1_mounting: Mounting
    l2_part: SramPart
    l2_mounting: Mounting


ENERGY_TECHNOLOGIES: Dict[str, EnergyTechnology] = {
    "paper": EnergyTechnology("paper", GAAS_1KX32, MCM, BICMOS_8KX8, PCB),
    "all-gaas": EnergyTechnology("all-gaas", GAAS_1KX32, MCM,
                                 GAAS_1KX32, MCM),
    "bicmos": EnergyTechnology("bicmos", BICMOS_8KX8, PCB,
                               BICMOS_8KX8, PCB),
}

#: The technology the paper's machine is built in.
DEFAULT_TECHNOLOGY = "paper"


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energy costs, integer femtojoules.

    Every field is the complete cost of one countable event — array
    switching, tag probes, and the wire crossings the event implies —
    except the bus transfers, which are kept in their own fields so the
    accountant can report interconnect energy as its own class (the MCM
    premise of the paper is exactly that wires matter).
    """

    technology: str

    # L1 arrays (per access / per line fill).
    l1i_fetch_fj: int
    l1d_read_fj: int
    l1d_write_fj: int
    l1i_fill_fj: int
    l1d_fill_fj: int

    # L2 arrays (per access, way probes included).
    l2i_access_fj: int
    l2d_access_fj: int
    l2w_access_fj: int

    # Interconnect between L1 and L2 (per refill line / per drain).
    bus_i_fill_fj: int
    bus_d_fill_fj: int
    bus_drain_fj: int

    # Write buffer bookkeeping (per entry pushed).
    wb_entry_fj: int

    # Main memory (per L2 miss / per dirty victim written back).
    mem_fetch_fj: int
    mem_writeback_fj: int

    # TLBs (per probe / per refill walk).
    tlb_probe_fj: int
    tlb_refill_fj: int

    # Standby dissipation of every array, per CPU cycle.
    static_fj_per_cycle: int

    def params(self) -> Dict[str, Any]:
        """Canonical JSON-able identity: technology name + every cost.

        This dict participates in farm/serve/grid content-address keys,
        so a cached result can never be served across a change to the
        model's constants — the key moves with the physics.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_params(cls, params: Dict[str, Any]) -> "EnergyModel":
        """Rebuild a model from :meth:`params` output."""
        known = {f.name for f in fields(cls)}
        unknown = set(params) - known
        if unknown:
            raise ConfigurationError(
                f"unknown EnergyModel field(s): "
                f"{', '.join(sorted(unknown))}")
        missing = known - set(params)
        if missing:
            raise ConfigurationError(
                f"EnergyModel params missing field(s): "
                f"{', '.join(sorted(missing))}")
        return cls(**params)

    def describe(self) -> Dict[str, float]:
        """Costs in pJ, for reports."""
        return {f.name: getattr(self, f.name) / FJ_PER_PJ
                for f in fields(self) if f.name != "technology"}


def _fj(pj: float) -> int:
    return int(round(pj * FJ_PER_PJ))


def resolve_technology(name: str) -> EnergyTechnology:
    """Look up a technology by name; raises ``ConfigurationError``."""
    try:
        return ENERGY_TECHNOLOGIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown energy technology {name!r} "
            f"(available: {', '.join(sorted(ENERGY_TECHNOLOGIES))})"
        ) from None


def derive_energy_model(config, technology: str = DEFAULT_TECHNOLOGY
                        ) -> "EnergyModel":
    """Derive the per-event cost vector for one machine configuration.

    Args:
        config: the :class:`~repro.core.config.SystemConfig` under test
            (geometry decides chip counts, line lengths, words moved).
        technology: a :data:`ENERGY_TECHNOLOGIES` name.

    The derivation mirrors :func:`repro.tech.timing.derive_cache_access`:
    chips from geometry, wire costs from mounting and chip count, array
    costs from the part's profile.  Write-buffer drains move one word
    under the write-through policies and a victim line under write-back
    (that is what the policies push), so the drain costs depend on the
    configured policy the same way the drain *timing* does.
    """
    tech = resolve_technology(technology)
    l1 = sram_energy(tech.l1_part)
    l2 = sram_energy(tech.l2_part)
    l1_wire = wire_energy(tech.l1_mounting)
    l2_wire = wire_energy(tech.l2_mounting)

    icache, dcache, l2cfg = config.icache, config.dcache, config.l2
    i_chips = chips_needed(icache.size_words, tech.l1_part)
    d_chips = chips_needed(dcache.size_words, tech.l1_part)
    l2i_chips = chips_needed(l2cfg.effective_i_size, tech.l2_part)
    l2d_chips = chips_needed(l2cfg.effective_d_size, tech.l2_part)

    # One L1 access: MMU tag probe in parallel with the array rank, plus
    # the word crossing the MCM (or board) once in each direction.
    i_word = l1_wire.word_pj(i_chips)
    d_word = l1_wire.word_pj(d_chips)
    l2i_word = l2_wire.word_pj(l2i_chips)
    l2d_word = l2_wire.word_pj(l2d_chips)

    # An L2 access probes every way's tags and reads one way's rank.
    ways_probe = l2cfg.ways * TAG_PROBE_PJ

    # Write-through drains push single words; write-back pushes victim
    # lines (see the write-back vs write-through handlers in
    # repro.core.engine.policies).
    drain_words = (1 if config.write_policy.is_write_through
                   else dcache.line_words)

    # Standby power of every array the machine carries, per CPU cycle
    # (1 mW * 1 ns = 1 pJ).  Split L2s carry both sides' chips.
    static_chips_mw = (l1.static_mw_per_chip * (i_chips + d_chips)
                       + l2.static_mw_per_chip * (l2i_chips + l2d_chips
                                                  if l2cfg.split
                                                  else l2d_chips))
    static_pj_per_cycle = static_chips_mw * CYCLE_NS / 1000.0

    mem = MAIN_MEMORY_ENERGY
    return EnergyModel(
        technology=tech.name,
        l1i_fetch_fj=_fj(TAG_PROBE_PJ + l1.read_pj() + i_word),
        l1d_read_fj=_fj(TAG_PROBE_PJ + l1.read_pj() + d_word),
        l1d_write_fj=_fj(TAG_PROBE_PJ + l1.write_pj() + d_word),
        l1i_fill_fj=_fj(icache.line_words * (l1.write_pj() + i_word)),
        l1d_fill_fj=_fj(dcache.line_words * (l1.write_pj() + d_word)),
        l2i_access_fj=_fj(ways_probe + l2.read_pj()),
        l2d_access_fj=_fj(ways_probe + l2.read_pj()),
        l2w_access_fj=_fj(ways_probe + l2.write_pj()),
        bus_i_fill_fj=_fj(icache.line_words * l2i_word),
        bus_d_fill_fj=_fj(dcache.line_words * l2d_word),
        bus_drain_fj=_fj(drain_words * l2d_word),
        wb_entry_fj=_fj(WB_ENTRY_PJ),
        mem_fetch_fj=_fj(mem.fetch_pj(l2cfg.line_words)),
        mem_writeback_fj=_fj(mem.writeback_pj(l2cfg.line_words)),
        tlb_probe_fj=_fj(TLB_PROBE_PJ),
        tlb_refill_fj=_fj(TLB_REFILL_PJ),
        static_fj_per_cycle=_fj(static_pj_per_cycle),
    )


def energy_spec(energy: Optional[object]) -> Optional[str]:
    """The serializable identity of an ``energy=`` argument.

    ``None`` stays ``None``; a technology name stays itself; an
    :class:`EnergyModel` collapses to its technology name (models are
    derived deterministically from configuration + technology, so the
    name is sufficient to rebuild it).
    """
    if energy is None:
        return None
    if isinstance(energy, str):
        resolve_technology(energy)  # validate eagerly
        return energy
    if isinstance(energy, EnergyModel):
        return energy.technology
    raise ConfigurationError(
        f"energy must be None, a technology name, or an EnergyModel "
        f"(got {type(energy).__name__})")
