"""Provisioning strategies: P-Store and the paper's baselines."""

from .base import NO_ACTION, ProvisioningStrategy, ScaleDecision, StrategySpec
from .manual import ManualStrategy
from .predictive import PStoreStrategy
from .reactive import ReactiveStrategy
from .simple import SimpleStrategy
from .static import StaticStrategy

__all__ = [
    "ManualStrategy",
    "NO_ACTION",
    "PStoreStrategy",
    "ProvisioningStrategy",
    "ReactiveStrategy",
    "ScaleDecision",
    "SimpleStrategy",
    "StaticStrategy",
    "StrategySpec",
]
