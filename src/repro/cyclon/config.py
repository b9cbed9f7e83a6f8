"""Configuration for the legacy Cyclon protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError
from repro.sim.retry import RetryPolicy
from repro.sim.transport import resolve_transport, validate_transport


@dataclass(frozen=True)
class CyclonConfig:
    """Cyclon parameters, named as in the paper.

    ``view_length`` is ℓ, the fixed number of neighbors each node keeps;
    ``swap_length`` is s, the number of descriptors exchanged per gossip.
    The paper's experiments use ℓ ∈ {20, 50} and s ∈ {3, 5, 8, 10}.

    ``retry`` governs what an initiator does when a shuffle times out
    under the event runtime (:class:`~repro.sim.retry.RetryPolicy`); a
    retry initiates a fresh shuffle with the next oldest neighbor.
    Inert under the cycle runtime, which has no timeouts.

    ``transport`` mirrors SecureCyclon (one value across both configs;
    ``REPRO_TRANSPORT`` applies uniformly): under ``"wire"`` every
    shuffle request/reply is framed through the legacy-Cyclon wire
    codec (:mod:`repro.cyclon.codec`) and receivers rebuild the
    descriptors from bytes.
    """

    view_length: int = 20
    swap_length: int = 3
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    transport: Optional[str] = None

    def __post_init__(self) -> None:
        validate_transport(self.transport)
        if self.view_length < 1:
            raise ConfigError("view_length must be >= 1")
        if self.swap_length < 1:
            raise ConfigError("swap_length must be >= 1")
        if self.swap_length > self.view_length:
            raise ConfigError(
                f"swap_length ({self.swap_length}) cannot exceed "
                f"view_length ({self.view_length})"
            )

    def effective_transport(self) -> str:
        """The resolved transport mode (``REPRO_TRANSPORT`` applies).

        Resolved at call time so the environment override can flip an
        already-built default config.
        """
        return resolve_transport(self.transport)
