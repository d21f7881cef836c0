"""Attack substrate.

The paper's threat model: a compromised end host is recruited into a botnet
and instructed to emit additional traffic, which *adds* to the features the
HIDS monitors.  Two attacker knowledge levels are studied — a naive attacker
injecting arbitrary amounts, and a resourceful (mimicry) attacker who has
profiled the host and injects the largest amount that still evades detection
with a target probability.  Figure 5 additionally replays a real Storm botnet
zombie trace; here a synthetic Storm zombie model provides the equivalent
footprint.

Policy evaluation takes every attack in one form, a :data:`BatchAttackFn`
over a :class:`VictimBatch`: :meth:`NaiveAttacker.host_builder`,
:func:`mimicry_batch_attack` and :func:`storm_batch_attack` build them.
"""

from repro.attacks.base import Attack, AttackTrace, BatchAttackFn, FeatureInjection, VictimBatch
from repro.attacks.naive import NaiveAttacker, constant_rate_attack
from repro.attacks.mimicry import MimicryAttacker, MimicryPlan, mimicry_batch_attack
from repro.attacks.primitives import (
    DDoSFloodModel,
    PortScanModel,
    SpamCampaignModel,
)
from repro.attacks.storm import StormZombieModel, generate_storm_trace, storm_batch_attack
from repro.attacks.botnet import Botnet, BotnetCampaign, CommandAndControl
from repro.attacks.injection import inject_attack, overlay_attack_matrix

__all__ = [
    "Attack",
    "AttackTrace",
    "BatchAttackFn",
    "VictimBatch",
    "FeatureInjection",
    "NaiveAttacker",
    "constant_rate_attack",
    "MimicryAttacker",
    "MimicryPlan",
    "mimicry_batch_attack",
    "PortScanModel",
    "DDoSFloodModel",
    "SpamCampaignModel",
    "StormZombieModel",
    "generate_storm_trace",
    "storm_batch_attack",
    "Botnet",
    "BotnetCampaign",
    "CommandAndControl",
    "inject_attack",
    "overlay_attack_matrix",
]
