"""Run configuration shared by the batch, streaming and CLI entry points."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from .augment import AbstainPolicy
from .errors import ConfigError

SIGN_STRATEGIES = ("nonnegative-sum", "anchor", "ratio-anchor")


@dataclass(frozen=True)
class RunConfig:
    """Tunables for accuracy estimation and parameter recovery.

    policy
        How abstain votes are pair-encoded (see ``AbstainPolicy``).
    sign_strategy
        "nonnegative-sum" picks, per task, the sign flip making the accuracy
        sum nonnegative. "anchor" propagates a known sign (set ``anchor_source``
        and ``anchor_sign``). "ratio-anchor" derives the anchor sign from the
        observed first moments and the prior, which lets a windowed estimator
        track accuracy sign inversions when the class balance is not 50/50.
    ratio_fallback
        Allow accuracies to be estimated as E[v]/E[Y] for variables without a
        usable triplet (and permit m < 3 inputs).
    """

    sign_strategy: str = "nonnegative-sum"
    anchor_source: Optional[int] = None
    anchor_sign: int = 1
    policy: AbstainPolicy = field(default_factory=AbstainPolicy)
    ratio_fallback: bool = False

    def __post_init__(self):
        if self.sign_strategy not in SIGN_STRATEGIES:
            raise ConfigError(f"unknown sign strategy {self.sign_strategy!r}")
        if self.sign_strategy == "anchor":
            if self.anchor_source is None:
                raise ConfigError("anchor strategy needs anchor_source")
            if self.anchor_source < 0:
                raise ConfigError(f"anchor_source must be >= 0 (sources count from 0), "
                                  f"got {self.anchor_source}")
        if self.anchor_sign not in (-1, 1):
            raise ConfigError("anchor_sign must be +1 or -1")

    def check_sources(self, n_sources: int) -> None:
        """Reject an anchor source that a graph of ``n_sources`` sources
        does not have. Only the anchor strategy reads ``anchor_source``."""
        if self.sign_strategy == "anchor" and self.anchor_source >= n_sources:
            raise ConfigError(f"anchor source {self.anchor_source + 1} is not one of "
                              f"the graph's {n_sources} sources")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Build a config from a plain dict, rejecting unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)
