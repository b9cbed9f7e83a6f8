"""Configuration for the SecureCyclon protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError
from repro.sim.retry import RetryPolicy
from repro.sim.transport import resolve_transport, validate_transport


@dataclass(frozen=True)
class SecureCyclonConfig:
    """SecureCyclon parameters.

    The first two mirror Cyclon (paper §II-B); the rest configure the
    security machinery of §IV–§V:

    ``redemption_cache_cycles``
        How long a redeemed descriptor is kept and gossiped as a sample
        (paper §V-C; Fig 7 sweeps 0/2/5/10 cycles).
    ``sample_horizon_cycles``
        How long observed descriptor samples stay in the cross-check
        cache.  The paper says nodes cache "all descriptors they have
        seen"; descriptors live ~ℓ cycles, so a bounded horizon (default
        2ℓ) is functionally equivalent with bounded memory (DESIGN.md).
        ``None`` selects the default.
    ``tit_for_tat``
        One-descriptor-per-round-trip transfers (§V-B).  Disabled for
        the Fig 6 "before" columns.
    ``timestamp_tolerance_seconds``
        Maximum clock deviation accepted on freshly minted descriptors
        (§IV-A).  ``None`` selects one gossip period.
    ``non_swappable_swap_limit``
        Optional cap on descriptors swapped in an exchange opened with a
        non-swappable redemption (§V-A, third restriction).
    ``drop_chains_through_blacklisted``
        If true, also discard descriptors whose ownership chain passes
        through a blacklisted node (ablation; the paper only requires
        dropping descriptors *created by* blacklisted nodes).
    ``blacklist_enabled``
        If false, violations are still detected and traced but no
        blacklisting, purging, or flooding happens.  Used by the Fig 7
        experiment, which measures raw detection ratios and therefore
        must keep cloners alive after their first offence.
    ``retry``
        What an initiator does when a dialogue *opening* times out
        under the event runtime (:class:`~repro.sim.retry.RetryPolicy`:
        none/immediate/backoff).  Each retry redeems the next oldest
        view entry — the timed-out redemption is spent and never
        re-sent — and only un-opened dialogues retry, so the cycle's
        single fresh mint cannot be duplicated.  Inert under the cycle
        runtime (no timeouts there).
    ``frequency_tolerance_seconds``
        Slack subtracted from the gossip period in *every* frequency
        predicate this node evaluates: the §IV-B self-guard before
        minting, the sample-cache cross-check, and relayed-proof
        validation.  Two mints conflict only when their timestamps are
        closer than ``period - tolerance``.  Needed once per-node clock
        drift exists (:class:`~repro.sim.clock.ClockDrift`): a slightly
        slow clock stamps honest once-per-period mints fractionally
        under one period apart, and without slack honest nodes would
        either throttle themselves or — worse — be provably
        incriminated by their own honest timestamps.  Size it to the
        deployment's drift bound (``>= 2 * max drift offset over one
        period``); the flip side is that attackers may legally mint
        every ``period - tolerance`` seconds, so keep it small.  Must
        stay below one period.  The default of zero preserves the
        paper's exact predicate.
    ``transport``
        How messages cross the simulated network: ``"object"`` passes
        the sender's Python objects by reference (the classic
        in-process semantics); ``"wire"`` frames every dialogue leg
        and push through the binary codec so each receiver decodes
        fresh objects from real bytes, and traffic accounting switches
        from budgeted to measured frame sizes.  The codec is lossless
        and consumes no RNG, so outputs are bit-for-bit identical
        under both modes (golden-guarded) — what changes is the work,
        including which chain verifier runs (see
        :meth:`repro.sim.engine.Engine.add_node`).  ``None`` (the
        default) resolves through the ``REPRO_TRANSPORT`` environment
        variable and falls back to object passing.
    """

    view_length: int = 20
    swap_length: int = 3
    redemption_cache_cycles: int = 5
    sample_horizon_cycles: Optional[int] = None
    tit_for_tat: bool = True
    timestamp_tolerance_seconds: Optional[float] = None
    non_swappable_swap_limit: Optional[int] = None
    drop_chains_through_blacklisted: bool = False
    blacklist_enabled: bool = True
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    frequency_tolerance_seconds: float = 0.0
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
        if self.redemption_cache_cycles < 0:
            raise ConfigError("redemption_cache_cycles must be >= 0")
        if (
            self.sample_horizon_cycles is not None
            and self.sample_horizon_cycles < 1
        ):
            raise ConfigError("sample_horizon_cycles must be >= 1")
        if (
            self.timestamp_tolerance_seconds is not None
            and self.timestamp_tolerance_seconds < 0
        ):
            raise ConfigError("timestamp_tolerance_seconds must be >= 0")
        if (
            self.non_swappable_swap_limit is not None
            and self.non_swappable_swap_limit < 0
        ):
            raise ConfigError("non_swappable_swap_limit must be >= 0")
        if self.frequency_tolerance_seconds < 0:
            raise ConfigError("frequency_tolerance_seconds must be >= 0")

    def effective_transport(self) -> str:
        """The resolved transport mode (see
        :func:`repro.sim.transport.resolve_transport`).

        Resolved at call time, not construction time, so the
        ``REPRO_TRANSPORT`` override can flip an already-built default
        config — the golden equivalence guard relies on this.
        """
        return resolve_transport(self.transport)

    @property
    def effective_sample_horizon(self) -> int:
        """Sample-cache horizon in cycles (defaults to 2ℓ)."""
        if self.sample_horizon_cycles is not None:
            return self.sample_horizon_cycles
        return 2 * self.view_length

    def effective_timestamp_tolerance(self, period_seconds: float) -> float:
        """Clock-deviation tolerance (defaults to one gossip period)."""
        if self.timestamp_tolerance_seconds is not None:
            return self.timestamp_tolerance_seconds
        return period_seconds

    def effective_frequency_period(self, period_seconds: float) -> float:
        """The drift-tolerant period used by every frequency predicate.

        Raises :class:`~repro.errors.ConfigError` when the configured
        slack swallows the whole period — a predicate over a
        non-positive window would let attackers mint freely.
        """
        effective = period_seconds - self.frequency_tolerance_seconds
        if effective <= 0:
            raise ConfigError(
                "frequency_tolerance_seconds "
                f"({self.frequency_tolerance_seconds}) must stay below "
                f"the gossip period ({period_seconds})"
            )
        return effective
