"""Population-scale orchestration: sample, train, aggregate tier by tier.

One :class:`PopulationTrainer` round:

1. **churn/faults** (round hooks) — the :class:`ChurnScheduler` updates the
   active population; an optional
   :class:`~repro.simulation.faults.FaultInjector` (its ``ServerCrash``
   events addressing *aggregator global indices*) activates this round's
   crashes.
2. **sample** — a ``(seed, round)``-derived stream draws the round's
   clients from the active set; only those materialize (model fetches are
   counted as ``model_fetch`` downlink traffic).
3. **train** — the sampled clients run local SGD through the configured
   execution path (serial / thread / process), bit-identical across all
   three, and upload to their static edge aggregator (``tier0_upload``).
4. **edge aggregate** — each edge averages its shard's uploads (previous
   output when it received none); Byzantine edges tamper what they
   *forward*, not what they computed.
5. **tier filter** — each higher tier applies the configured filter rule
   to the models forwarded by its children (``tier<t>_exchange`` traffic),
   with per-tier tolerance ``q_t >= 2*B_{t-1}+1``, degraded-quorum
   fallback, and per-tier ``B-hat``/rejection traces recorded in
   :class:`~repro.core.history.TrainingHistory`. The top of the hierarchy
   is the next global model.

Peak materialized-client state stays ``O(sampled + tiers)`` — asserted by
``benchmarks/test_ext_population.py`` at K up to 5000.

Everything wire-level comes from
:class:`~repro.core.engine.RoundEngine` (see docs/upload.md and
docs/faults.md): ``config.upload_codecs`` compresses the ``tier0_upload``
and ``tier<t>_exchange`` legs (deltas against the round's fetched global
model — the reference all parties honestly share, clients pull it over
the reliable ``model_fetch`` plane — with per-client residuals on uploads
and per-child residuals, keyed by global index, on exchange forwards);
every upload/exchange send retries to its static target per
``config.resolved_retry_policy``; and with
``config.aggregation_mode="deadline"`` each exchange leg passes the
deadline gate, so parents combine whatever arrived by the deadline — late
forwards are buffered on the parent and admitted next round within
``config.max_staleness`` (no child contributes twice to one round).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..attacks.base import Attack
from ..common.errors import ConfigurationError
from ..core.client import Client, frozen
from ..core.config import FedMSConfig
from ..core.engine import RoundEngine, RoundState, place_byzantine
from ..core.filtering import Verdict, resolve_filter, static_filter
from ..core.history import RoundRecord
from ..core.server import adversary_view
from ..data.datasets import ArrayDataset
from ..execution import WorkerSpec, make_backend
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


@dataclass
class _RoundState(RoundState):
    """The tiered topology's working state, on top of the engine's."""

    active_ids: List[int] = field(default_factory=list)
    sampled_ids: List[int] = field(default_factory=list)
    churn_events: List[str] = field(default_factory=list)
    results: Dict[int, "tuple"] = field(default_factory=dict)
    tier_outcomes: Dict[int, Dict[int, Verdict]] = field(
        default_factory=dict)
    materialized: int = 0


class PopulationTrainer(RoundEngine):
    """Sampled, churning, tier-aggregated Fed-MS at population scale.

    Requires ``config.population_size`` (matching ``len(shard_specs)``)
    and ``config.tier_spec``. ``config.tier_byzantine`` places Byzantine
    aggregators per tier (an ``attack`` is then required); explicit
    placement can be supplied via ``byzantine_tier_ids`` (tier -> tier-local
    ids). ``churn_plan`` defaults to an empty plan — build one with
    :meth:`ChurnPlan.from_config` or :meth:`ChurnPlan.sample` for a
    changing population. ``fault_plan`` crashes *aggregators* (by global
    index) and drops clients, composing with churn.
    """

    upload_tag = UPLOAD_TAG
    downlink_tag = FETCH_TAG
    round_state = _RoundState
    # Every client uploads to its static edge; aggregators carry no ledger;
    # the round's cohort is ``sample_fraction`` of the active population.
    ignored_config = {"upload_strategy": ("sparse",),
                      "health_scoring": (False,),
                      "participation_fraction": (1.0,)}

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
        if config.population_size is None:
            raise ConfigurationError(
                "PopulationTrainer needs config.population_size"
            )
        if config.tier_spec is None:
            raise ConfigurationError("PopulationTrainer needs config.tier_spec")
        if len(shard_specs) != config.population_size:
            raise ConfigurationError(
                f"{len(shard_specs)} shard specs for a population of "
                f"{config.population_size}"
            )
        topology = TierTopology(config.tier_spec,
                                config.resolved_tier_byzantine)
        if any(topology.byzantine) and attack is None:
            raise ConfigurationError(
                "tier_byzantine places Byzantine aggregators but no attack "
                "was supplied"
            )
        super().__init__(config, model_factory=model_factory,
                         test_dataset=test_dataset, network=network,
                         init_stream="population/init/global")
        self.topology = topology
        self._global_vector = self.initial_vector

        self.population = ClientPopulation(
            shard_specs,
            model_factory=model_factory,
            batch_size=config.batch_size,
            rngs=self.rngs,
            batch_seed=config.seed,
            learning_rate=config.learning_rate,
            lr_schedule=lr_schedule,
            include_buffers=config.include_buffers,
            flatten_inputs=flatten_inputs,
        )

        self.byzantine_tier_ids = self._place_byzantine(byzantine_tier_ids)
        self.tiers: List[List[TierAggregator]] = []
        for tier, count in enumerate(self.topology.counts):
            row: List[TierAggregator] = []
            chosen = self.byzantine_tier_ids.get(tier, frozenset())
            for index in range(count):
                expected = (len(self.topology.children_of(tier, index))
                            if tier >= 1 else None)
                byzantine = index in chosen
                row.append(TierAggregator(
                    tier, index,
                    global_index=self.topology.global_index(tier, index),
                    trim_budget=self.topology.trim_budget(tier),
                    expected_children=expected,
                    initial_model=self._global_vector,
                    attack=attack if byzantine else None,
                    attack_rng=(self.rngs.make(
                        f"population/attack/tier/{tier}/{index}")
                        if byzantine else None),
                ))
            self.tiers.append(row)

        # A tier parent trims by its own budget, not the flat config beta,
        # unless the configured rule estimates one (adaptive-beta,
        # loss-based): those share one filter across tiers.
        resolved = resolve_filter(
            config,
            model_factory=model_factory,
            root_dataset=(root_dataset if root_dataset is not None
                          else test_dataset),
            flatten_inputs=flatten_inputs,
            root_rng=self.rngs.make("population/root"),
        )
        self._filter = resolved if resolved.info_fn is not None \
            else static_filter

        if churn_plan is not None:
            if churn_plan.population_size != config.population_size:
                raise ConfigurationError(
                    f"churn plan covers {churn_plan.population_size} "
                    f"clients, population has {config.population_size}"
                )
            self.churn_plan = churn_plan
        else:
            self.churn_plan = ChurnPlan(
                population_size=config.population_size
            )
        self.churn = ChurnScheduler(self.churn_plan)

        self.injector: Optional[FaultInjector] = None
        if fault_plan is not None and not fault_plan.is_empty:
            self.injector = FaultInjector(fault_plan)
            self._attach_injector(
                self.injector, num_clients=config.population_size,
                num_servers=self.topology.total_aggregators,
            )

        # Exchange legs use the wire's trim-compatible variant so sibling
        # forwards stay coordinate-aligned under the parent's trimmed
        # filter.
        self.exchange_codec = self.wire.broadcast_codec

        self._eval_client = Client(
            0,
            self.population.model,
            test_dataset,
            batch_size=256,
            rng=np.random.default_rng(0),
            include_buffers=config.include_buffers,
            flatten_inputs=flatten_inputs,
        )

        # The same backends as the flat trainer (docs/execution.md). The
        # serial path trains the clients the population materialises
        # (``materialize`` looked up per call: tracers rebind it on the
        # instance); pool workers index the lazy dataset view.
        population = self.population
        self.execution = make_backend(
            config.resolved_execution_backend,
            client_of=lambda client_id, t:
                population.materialize(client_id, t),
            spec=WorkerSpec(
                seed=config.seed,
                local_steps=config.local_steps,
                batch_size=config.batch_size,
                learning_rate=config.learning_rate,
                weight_decay=0.0,
                include_buffers=config.include_buffers,
                flatten_inputs=flatten_inputs,
                # The most clients one round can sample.
                cohort=sample_size(config.population_size,
                                   config.sample_fraction),
                state_dim=int(self._eval_client.state.size),
                model_factory=model_factory,
                datasets=population.datasets,
                lr_schedule=lr_schedule,
            ),
            num_workers=config.resolved_num_workers,
        )

        self.scheduler.add_round_hook(self._begin_round)
        self.scheduler.add_phase("sample", self._phase_sample)
        self.scheduler.add_phase("train", self._phase_train)
        self.scheduler.add_phase("edge_aggregate", self._phase_edge_aggregate)
        self.scheduler.add_phase("tier_filter", self._phase_tier_filter)
        self.scheduler.add_phase("finalize", self._phase_finalize)

    # -- setup helpers -------------------------------------------------------

    def _place_byzantine(self, explicit) -> Dict[int, frozenset]:
        explicit = explicit or {}
        placed = {
            tier: place_byzantine(
                explicit.get(tier), count=budget,
                total=self.topology.counts[tier],
                what=f"byzantine_tier_ids[{tier}]",
                rng=self.rngs.make(f"population/byzantine/tier/{tier}"),
            )
            for tier, budget in enumerate(self.topology.byzantine)
            if budget > 0 or tier in explicit
        }
        extra = set(explicit) - set(placed)
        if extra:
            raise ConfigurationError(
                f"byzantine_tier_ids names tiers {sorted(extra)} whose "
                f"budget is 0"
            )
        return placed

    @property
    def global_model_vector(self) -> np.ndarray:
        """The current global model (the top aggregator's output)."""
        return self._global_vector.copy()

    def _aggregator_alive(self, tier: int, index: int) -> bool:
        if self.injector is None:
            return True
        return self.injector.server_alive(
            self.topology.global_index(tier, index)
        )

    # -- round phases --------------------------------------------------------

    def _begin_round(self, t: int) -> None:
        self._round.churn_events = self.churn.begin_round(t)

    def _phase_sample(self, t: int) -> None:
        state = self._round
        assert state is not None
        active = self.churn.active_ids()
        if self.injector is not None:
            active = [cid for cid in active
                      if self.injector.client_active(cid)]
        state.active_ids = active
        state.sampled_ids = sample_clients(
            active, self.config.sample_fraction,
            seed=self.config.seed, round_index=t,
        )
        top_global = self.topology.global_index(self.topology.num_tiers - 1, 0)
        for cid in state.sampled_ids:
            self.population.materialize(cid, t)
            # Model fetch is the reliable control plane: the sampled
            # client pulls the current global model when it checks in.
            self.network.send(Message(
                NodeId.server(top_global), NodeId.client(cid),
                self._global_vector, tag=FETCH_TAG, round_index=t,
            ))
            self.network.receive(NodeId.client(cid))
        state.materialized = self.population.materialized_count
        self.network.stats.record_materialized(state.materialized)

    def _phase_train(self, t: int) -> None:
        state = self._round
        assert state is not None
        state.results = self.execution.train_clients(
            t, [(cid, self._global_vector) for cid in state.sampled_ids]
        )
        losses = [state.results[cid][1] for cid in state.sampled_ids]
        if losses:
            state.train_loss = float(np.mean(losses))
        wire_length = self._global_vector.size
        for cid in state.sampled_ids:
            # Backends return whole states; batch-norm statistics stay off
            # the wire unless ``include_buffers`` put them in the model.
            trained, _ = state.results[cid]
            edge = self.topology.edge_of_client(cid)
            payload, residual = self.wire.encode_upload(
                trained[:wire_length], cid)
            if self.send_with_retry(Message(
                NodeId.client(cid),
                NodeId.server(self.topology.global_index(0, edge)),
                payload, tag=UPLOAD_TAG, round_index=t,
            ), state):
                self.wire.adopt("upload", cid, residual)

    def _phase_edge_aggregate(self, t: int) -> None:
        state = self._round
        assert state is not None
        outcomes: Dict[int, Verdict] = {}
        for edge in self.tiers[0]:
            inbox = self.network.receive(
                NodeId.server(edge.global_index)
            )
            if not self._aggregator_alive(0, edge.index):
                continue
            uploads = [self.wire.decode(m.payload) for m in inbox]
            senders = [m.sender.index for m in inbox]
            outcomes[edge.index] = edge.combine(uploads, senders)
        state.tier_outcomes[0] = outcomes

    def _phase_tier_filter(self, t: int) -> None:
        state = self._round
        assert state is not None
        for tier in range(1, self.topology.num_tiers):
            below = self.tiers[tier - 1]
            produced = state.tier_outcomes[tier - 1]
            # What each live child forwards upward this round; Byzantine
            # children tamper here, with adaptive knowledge of their
            # tier's honest outputs.
            peer_outputs = adversary_view(
                [child.current_output for child in below])
            forwarded: Dict[int, np.ndarray] = {
                child.index: child.outgoing(t, peer_outputs=peer_outputs)
                for child in below if child.index in produced
            }
            # Barrier mode waits out the slowest forward; deadline mode
            # moves on when the deadline fires — a late child's forward is
            # withheld (it would not have arrived) and buffered on its
            # parent for bounded-staleness admission.
            leg = exchange_tag(tier)
            late_ids = frozenset(
                self.deadline_gate(leg, sorted(forwarded), state)
            )
            outcomes: Dict[int, Verdict] = {}
            base_gid = self.topology.global_index(tier - 1, 0)
            for parent in self.tiers[tier]:
                children = self.topology.children_of(tier, parent.index)
                stale = parent.take_admissible(
                    t, self.config.max_staleness,
                    late_children=late_ids,
                    absent_children=frozenset(
                        c for c in children if c not in forwarded
                    ),
                )
                # Admitted stale forwards go on the wire now — the late
                # message finally arrives this round — encoded with this
                # round's salt, residual-free (the buffered vector is a
                # re-send, not fresh progress).
                for child_index in sorted(stale):
                    payload, _ = self.wire.encode_broadcast(
                        stale[child_index], t
                    )
                    self.send_with_retry(Message(
                        NodeId.server(base_gid + child_index),
                        NodeId.server(parent.global_index),
                        payload, tag=leg, round_index=t,
                    ), state)
                state.late_admitted += len(stale)
                for child_index in children:
                    if child_index not in forwarded:
                        continue
                    if child_index in late_ids:
                        parent.buffer_late(child_index, t,
                                           forwarded[child_index])
                        continue
                    child_gid = base_gid + child_index
                    payload, residual = self.wire.encode_broadcast(
                        forwarded[child_index], t,
                        leg="forward", sender=child_gid,
                    )
                    if self.send_with_retry(Message(
                        NodeId.server(child_gid),
                        NodeId.server(parent.global_index),
                        payload, tag=leg, round_index=t,
                    ), state):
                        self.wire.adopt("forward", child_gid, residual)
                inbox = self.network.receive(
                    NodeId.server(parent.global_index)
                )
                if not self._aggregator_alive(tier, parent.index):
                    continue
                outcomes[parent.index] = parent.combine(
                    [self.wire.decode(m.payload) for m in inbox],
                    [m.sender.index for m in inbox], filter=self._filter,
                )
            state.tier_outcomes[tier] = outcomes
        top = self.tiers[-1][0]
        # Read-only: sampled clients and the evaluation adopt it by reference.
        self._global_vector = frozen(top.current_output.copy())
        if self.wire.active:
            # Next round's shared reference is the new global model —
            # clients fetch it at check-in, edges and parents track it
            # here, so every leg's deltas stay mutually decodable.
            self.wire.advance(np.array(self._global_vector))

    def _phase_finalize(self, t: int) -> None:
        self.population.release_all()

    # -- round records -------------------------------------------------------

    def _complete_record(self, record: RoundRecord,
                         state: _RoundState) -> None:
        tier_est: Dict[int, int] = {}
        tier_rejected: Dict[int, List[int]] = {}
        tier_degraded: Dict[int, List[int]] = {}
        tier_fallback: Dict[int, List[int]] = {}
        for tier, outcomes in state.tier_outcomes.items():
            for index, outcome in sorted(outcomes.items()):
                gid = self.topology.global_index(tier, index)
                if outcome.estimated_byzantine is not None:
                    tier_est[tier] = max(tier_est.get(tier, 0),
                                         outcome.estimated_byzantine)
                if outcome.rejected:
                    tier_rejected.setdefault(tier, []).extend(
                        outcome.rejected)
                if outcome.vector is None:
                    tier_fallback.setdefault(tier, []).append(gid)
                elif outcome.degraded:
                    tier_degraded.setdefault(tier, []).append(gid)
            if self.injector is not None:
                # Crashed aggregators produced nothing: their output is
                # implicitly stale, which is a fallback in all but name.
                for agg in self.tiers[tier]:
                    if (agg.index not in outcomes
                            and not self._aggregator_alive(tier, agg.index)):
                        tier_fallback.setdefault(tier, []).append(
                            agg.global_index
                        )
        for rejected in tier_rejected.values():
            rejected.sort()
        for fell_back in tier_fallback.values():
            fell_back.sort()
        if self.injector is not None:
            record.alive_servers = len(self.injector.alive_servers(
                self.topology.total_aggregators
            ))
        record.estimated_byzantine = \
            max(tier_est.values()) if tier_est else None
        record.num_active_clients = len(state.active_ids)
        record.num_sampled_clients = len(state.sampled_ids)
        record.materialized_clients = state.materialized
        record.churn_events = state.churn_events
        record.tier_estimated_byzantine = tier_est
        record.tier_filtered_model_ids = tier_rejected
        record.tier_degraded_aggregators = tier_degraded
        record.tier_fallback_aggregators = tier_fallback

    def _evaluate(self) -> "tuple[float, float]":
        self._eval_client.set_model_vector(self._global_vector)
        return self._eval_client.evaluate(self.test_dataset)
