"""The bound view of a scenario an experiment function receives.

Experiments no longer own module-level grid constants; they take a
:class:`ScenarioParams` carrying the base machine and the named sweep
axes the scenario declared.  :func:`repro.scenario.run_scenario` binds
them from the resolved document, whichever spelling named it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.core.config import SystemConfig
from repro.core.serialization import did_you_mean
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ScenarioParams:
    """Machine + sweep axes, resolved and validated, for one experiment."""

    #: Base machine every grid point derives from.
    machine: SystemConfig
    #: Named sweep axes (``axis name -> tuple of values``); what the
    #: experiment's axes declaration promised is present.
    axes: Dict[str, Tuple[Any, ...]] = field(default_factory=dict)

    def axis(self, name: str) -> Tuple[Any, ...]:
        """The values of one named axis; loud about typos."""
        if name not in self.axes:
            raise ConfigurationError(
                f"scenario declares no sweep axis {name!r}"
                f"{did_you_mean(name, self.axes)}; "
                f"declared axes: {', '.join(sorted(self.axes)) or 'none'}")
        return self.axes[name]
