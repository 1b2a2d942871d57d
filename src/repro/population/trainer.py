"""Population-scale orchestration: sample, train, aggregate tier by tier.

:class:`PopulationTrainer` is the tiered topology of the
:class:`~repro.core.engine.RoundEngine` (docs/algorithm.md, "Topologies";
docs/population.md). Round hooks advance churn and faults (a
``ServerCrash`` addresses an aggregator's global index). Then the phases:

1. **sample** — a ``(seed, round)``-derived draw from the active clients;
   each checks in by fetching the global model (``model_fetch``, the
   reliable control plane);
2. **train** — local SGD on the execution backend, each client uploading
   to its static edge aggregator (``tier0_upload``) the moment it
   finishes. A client's shard is built where it trains and dropped after
   its steps, so the trainer's process holds at most one (none when a
   pool trains);
3. **edge aggregate** — each edge averages the uploads it held for its
   shard (previous output when it received none);
4. **tier filter** — one fan-in leg per higher tier (``tier<t>_exchange``):
   each parent runs ``Def()``, held to its tier's budget
   ``q_t >= 2*B_{t-1}+1``, on what its children forwarded (a Byzantine
   child tampers what it forwards, not what it computed). The top's output
   is the next global model;
5. **finalize** — nothing is left to release; the phase keeps its name
   for the timings that read it.

Codecs, retries, deadline admission and health exclusion are the engine's,
as on every topology.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..attacks.base import Attack
from ..common.errors import ConfigurationError
from ..core.client import Client
from ..core.config import FedMSConfig
from ..core.engine import (
    Leg,
    RoundEngine,
    RoundState,
    Topology,
    place_byzantine,
    refuse,
    tally,
)
from ..core.filtering import ResolvedFilter, resolve_filter
from ..core.history import RoundRecord
from ..data.datasets import ArrayDataset
from ..nn.module import Module
from ..nn.schedules import LRSchedule
from ..simulation.faults import FaultInjector, FaultPlan
from ..simulation.network import Message, Network, NodeId
from .churn import ChurnPlan, ChurnScheduler
from .clients import ClientPopulation
from .sampling import sample_clients, sample_size
from .tiers import TierAggregator, TierTopology

__all__ = ["PopulationTrainer"]

ModelFactory = Callable[[np.random.Generator], Module]

#: Traffic tags of the sharded topology (see docs/population.md).
FETCH_TAG = "model_fetch"
UPLOAD_TAG = "tier0_upload"


def exchange_tag(tier: int) -> str:
    """Tag of the tier ``t-1 -> t`` forwarding leg."""
    return f"tier{tier}_exchange"


class PopulationTrainer(RoundEngine):
    """Sampled, churning, tier-aggregated Fed-MS at population scale.

    Requires ``config.population_size`` (matching ``len(shard_specs)``)
    and ``config.tier_spec``. ``config.tier_byzantine`` places Byzantine
    aggregators per tier (an ``attack`` is then required); explicit
    placement can be supplied via ``byzantine_tier_ids`` (tier -> tier-local
    ids). ``churn_plan`` defaults to an empty plan — build one with
    :meth:`ChurnPlan.from_config` or :meth:`ChurnPlan.sample` for a
    changing population. ``fault_plan`` crashes *aggregators* (by global
    index) and drops clients, composing with churn. The round's cohort is
    ``config.sample_fraction`` of the active population, so
    ``participation_fraction`` raises, as does an ``upload_strategy``
    other than ``"sparse"`` (a client's one target is its edge).
    """

    def __init__(self, config: FedMSConfig, *,
                 model_factory: ModelFactory,
                 shard_specs: Sequence[object],
                 test_dataset: ArrayDataset,
                 attack: Optional[Attack] = None,
                 byzantine_tier_ids: Optional[Dict[int, Sequence[int]]] = None,
                 churn_plan: Optional[ChurnPlan] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 root_dataset: Optional[ArrayDataset] = None,
                 lr_schedule: Optional[LRSchedule] = None,
                 flatten_inputs: bool = False,
                 network: Optional[Network] = None) -> None:
        if config.population_size is None or config.tier_spec is None:
            raise ConfigurationError("PopulationTrainer needs "
                                     "config.population_size and tier_spec")
        if len(shard_specs) != config.population_size:
            raise ConfigurationError(
                f"{len(shard_specs)} shard specs for a population of "
                f"{config.population_size}")
        refuse(config, "PopulationTrainer", "the cohort is a sample_fraction "
               "of the active clients, each uploading to its edge",
               participation_fraction=1.0, upload_strategy="sparse")
        topology = TierTopology(config.tier_spec,
                                config.resolved_tier_byzantine)
        if any(topology.byzantine) and attack is None:
            raise ConfigurationError("tier_byzantine places Byzantine "
                                     "aggregators but no attack was supplied")
        super().__init__(config, model_factory=model_factory,
                         test_dataset=test_dataset, network=network,
                         init_stream="population/init/global")
        self.tier_topology = topology

        self.population = ClientPopulation(
            shard_specs, model_factory=model_factory,
            batch_size=config.batch_size, rngs=self.rngs,
            batch_seed=config.seed, learning_rate=config.learning_rate,
            lr_schedule=lr_schedule, include_buffers=config.include_buffers,
            flatten_inputs=flatten_inputs)

        self.byzantine_tier_ids = self._place_byzantine(byzantine_tier_ids)
        self.tiers: List[List[TierAggregator]] = []
        for tier, count in enumerate(topology.counts):
            row: List[TierAggregator] = []
            chosen = self.byzantine_tier_ids.get(tier, frozenset())
            for index in range(count):
                expected = (len(topology.children_of(tier, index))
                            if tier >= 1 else None)
                byzantine = index in chosen
                row.append(TierAggregator(
                    tier, index,
                    global_index=topology.global_index(tier, index),
                    trim_budget=topology.trim_budget(tier),
                    expected_children=expected,
                    initial_model=self.initial_vector,
                    attack=attack if byzantine else None,
                    attack_rng=(self.rngs.make(
                        f"population/attack/tier/{tier}/{index}")
                        if byzantine else None)))
            self.tiers.append(row)
        top = self.tiers[-1][0]
        # Every tier parent runs the configured Def(), held to its own
        # tier's budget.
        self.filter_rule: ResolvedFilter = resolve_filter(
            config, model_factory=model_factory,
            root_dataset=(root_dataset if root_dataset is not None
                          else test_dataset),
            flatten_inputs=flatten_inputs,
            root_rng=self.rngs.make("population/root"))

        self.churn_plan = (churn_plan if churn_plan is not None else
                           ChurnPlan(population_size=config.population_size))
        if self.churn_plan.population_size != config.population_size:
            raise ConfigurationError(
                f"churn plan covers {self.churn_plan.population_size} "
                f"clients, population has {config.population_size}")
        self.churn = ChurnScheduler(self.churn_plan)

        if fault_plan is not None and not fault_plan.is_empty:
            self._attach_injector(FaultInjector(fault_plan),
                                  num_clients=config.population_size,
                                  num_servers=topology.total_aggregators)

        # Exchange legs use the wire's trim-compatible variant so sibling
        # forwards stay coordinate-aligned under the parent's trimmed
        # filter.
        self.exchange_codec = self.wire.broadcast_codec

        self._eval_client = Client(
            0, self.population.model, test_dataset, batch_size=256,
            rng=np.random.default_rng(0),
            include_buffers=config.include_buffers,
            flatten_inputs=flatten_inputs)

        # The serial path builds each client as it trains it
        # (``materialize`` looked up per call: tracers rebind it on the
        # instance) and holds one at a time; pool workers index the lazy
        # dataset view.
        population = self.population

        def client_of(client_id: int, t: int) -> Client:
            self._round.materialized = 1
            return population.materialize(client_id)

        self._make_execution(
            client_of,
            # The most clients one round can sample.
            cohort=sample_size(config.population_size,
                               config.sample_fraction),
            state_dim=int(self._eval_client.state.size),
            model_factory=model_factory, datasets=population.datasets,
            lr_schedule=lr_schedule, flatten_inputs=flatten_inputs)

        def begin_round(t: int) -> None:
            self._round.churn_events = self.churn.begin_round(t)

        self.scheduler.add_round_hook(begin_round)
        wire_length = self.initial_vector.size
        legs = [self._tier_leg(tier)
                for tier in range(1, topology.num_tiers)]
        self._install(Topology(
            phases=(("sample", (self._open,)),
                    ("train", (self._train,)),
                    ("edge_aggregate", (self._aggregate,)),
                    ("tier_filter",
                     tuple(partial(self._exchange, leg) for leg in legs)
                     + (self._advance,)),
                    ("finalize", ())),
            nodes=[node for row in self.tiers for node in row],
            edges=topology.counts[0],
            quorums=[
                ([topology.global_index(tier - 1, child)
                  for child in topology.children_of(tier, parent)],
                 topology.trim_budget(tier))
                for tier in range(1, topology.num_tiers)
                for parent in range(topology.counts[tier])
            ],
            cohort=self._sample,
            start=lambda client_id: top.current_output,
            # Backends return whole states; batch-norm statistics stay off
            # the wire unless ``include_buffers`` put them in the model.
            trained=lambda client_id, state, loss: state[:wire_length],
            targets=lambda state: [[topology.edge_of_client(client_id)]
                                   for client_id in state.cohort],
            fold=lambda n, upload, sender: self.tiers[0][n].fold(upload,
                                                                 sender),
            close=lambda n: self.tiers[0][n].close(),
            evaluate=self._evaluate_global,
            # Clients fetch the global model at check-in and edges and
            # parents track it, so every leg's deltas stay decodable.
            reference=lambda: top.current_output,
            record=self._record_tiers,
            upload_tag=UPLOAD_TAG, downlink_tag=FETCH_TAG,
        ))

    def _place_byzantine(self, explicit) -> Dict[int, frozenset]:
        explicit = explicit or {}
        placed = {
            tier: place_byzantine(
                explicit.get(tier), count=budget,
                total=self.tier_topology.counts[tier],
                what=f"byzantine_tier_ids[{tier}]",
                rng=self.rngs.make(f"population/byzantine/tier/{tier}"))
            for tier, budget in enumerate(self.tier_topology.byzantine)
            if budget > 0 or tier in explicit}
        extra = set(explicit) - set(placed)
        if extra:
            raise ConfigurationError(f"byzantine_tier_ids names tiers "
                                     f"{sorted(extra)} whose budget is 0")
        return placed

    def _tier_leg(self, tier: int) -> Leg:
        """Children of ``tier - 1`` forward to their ``tier`` parent; a
        Byzantine child tampers here, seeing its tier's honest outputs."""
        below, row = self.tiers[tier - 1], self.tiers[tier]
        return Leg(
            exchange_tag(tier), wire="forward",
            senders=tuple(NodeId.server(child.global_index)
                          for child in below),
            receivers=[NodeId.server(parent.global_index) for parent in row],
            feeds=partial(self.tier_topology.children_of, tier),
            model=lambda child, parent, t, view: below[child].outgoing(
                t, peer_outputs=view),
            quorum=lambda p: (row[p].expected_children, row[p].trim_budget),
            adopt=lambda p, verdict: row[p].absorb(verdict),
            gate=exchange_tag(tier), filter=self.filter_rule,
        )

    @property
    def global_model_vector(self) -> np.ndarray:
        """The current global model (the top aggregator's output)."""
        return self.tiers[-1][0].current_output.copy()

    def _sample(self, t: int) -> List[int]:
        """The cohort: a sample of the active clients, each checked in (the
        model fetch is the reliable control plane). Nothing is built here:
        a client's shard exists only while it trains."""
        state = self._round
        active = self.churn.active_ids()
        if self.fault_injector is not None:
            active = [client_id for client_id in active
                      if self._up(NodeId.client(client_id))]
        sampled = sample_clients(active, self.config.sample_fraction,
                                 seed=self.config.seed, round_index=t)
        top = self.tiers[-1][0]
        for client_id in sampled:
            self.network.send(Message(
                NodeId.server(top.global_index), NodeId.client(client_id),
                top.current_output, tag=FETCH_TAG, round_index=t,
            ))
            self.network.receive(NodeId.client(client_id))
        state.active_clients = len(active)
        state.materialized = 0  # the serial path's client_of sets 1
        return sampled

    def _record_tiers(self, record: RoundRecord, state: RoundState) -> None:
        tables = ({}, {}, {}, {})
        tags = [UPLOAD_TAG] + [exchange_tag(tier) for tier
                               in range(1, self.tier_topology.num_tiers)]
        for tier, tag in enumerate(tags):
            estimate, *lists = tally(state.outcomes.get(tag, {}))
            if self.fault_injector is not None:
                # A crashed aggregator's stale output: a fallback.
                lists[-1] = sorted(lists[-1] + [
                    node.global_index for node in self.tiers[tier]
                    if node.global_index not in state.alive])
            for table, value in zip(tables, [estimate] + lists):
                if value not in (None, []):
                    table[tier] = value
        if self.fault_injector is not None:
            record.alive_servers = len(state.alive)
        record.estimated_byzantine = max(tables[0].values(), default=None)
        (record.tier_estimated_byzantine, record.tier_filtered_model_ids,
         record.tier_degraded_aggregators,
         record.tier_fallback_aggregators) = tables
        record.num_active_clients = state.active_clients
        record.num_sampled_clients = len(state.cohort)
        record.materialized_clients = state.materialized
        self.network.stats.record_materialized(state.materialized)

    def _evaluate_global(self) -> "tuple[float, float]":
        self._eval_client.set_model_vector(self.tiers[-1][0].current_output)
        return self._eval_client.evaluate(self.test_dataset)
