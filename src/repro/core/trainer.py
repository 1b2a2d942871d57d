"""The Fed-MS training loop (Algorithm 1).

:class:`FedMSTrainer` wires together every substrate in the library: clients
(:mod:`repro.core.client`) train locally and upload through the simulated
edge network (:mod:`repro.simulation`) to benign and Byzantine parameter
servers (:mod:`repro.core.server`, :mod:`repro.attacks`); each client then
filters the received global models with the beta-trimmed mean
(:mod:`repro.aggregation`) to obtain its next feasible global model.

It is the flat topology of the :class:`~repro.core.engine.RoundEngine`
(docs/algorithm.md, "Topologies"): each client uploads to the PSs
:func:`~repro.core.upload.assign_uploads` draws, and the one fan-in leg,
gated as ``broadcast``, carries every PS's model to every client, where
``Def()`` runs. Under faults (docs/faults.md) failed uploads retry and
re-sample an alive PS, crashed PSs miss rounds, a client that receives
``q < P`` models trims the absolute ``B`` and falls back to its previous
feasible model when ``q <= 2B``; deadline rounds buffer late broadcasts,
and the health ledger circuit-breaks a persistently bad PS out of upload
sampling and quorum counting, never below the ``2B+1`` floor.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..aggregation import AggregationRule
from ..attacks.base import Attack
from ..attacks.client_attacks import ClientSignFlipAttack
from ..common.errors import ConfigurationError
from ..data.datasets import ArrayDataset
from ..nn.module import DTYPE, Module
from ..simulation.faults import FaultInjector
from ..simulation.network import Network, NodeId
from .client import frozen
from .config import FedMSConfig
from .engine import (
    POPULATION_SETTINGS,
    Leg,
    RoundEngine,
    RoundState,
    Topology,
    place_byzantine,
    refuse,
    tally,
)
from .filtering import ResolvedFilter, Verdict, resolve_filter
from .history import RoundRecord
from .upload import assign_uploads

__all__ = ["FedMSTrainer"]

ModelFactory = Callable[[np.random.Generator], Module]


class FedMSTrainer(RoundEngine):
    """Simulates Fed-MS end to end.

    Parameters
    ----------
    config:
        Topology and hyper-parameters (``K``, ``P``, ``B``, ``E``, beta, ...).
        ``config.filter_rule_name`` names the clients' ``Def()``: unset, the
        beta-trimmed mean with ``beta = config.resolved_trim_ratio``;
        ``"mean"`` is the paper's undefended "Vanilla FL" comparison.
        The population settings (``population_size``, ``tier_spec``, churn
        rates) belong to :class:`~repro.population.PopulationTrainer` and
        raise here.
    model_factory:
        Builds one model from a random generator. Called for the shared
        initial model ``w_0`` and once per execution context (this process,
        each pool worker) for the replica its clients train on in turn.
    client_datasets:
        One local dataset per client (length must equal ``config.num_clients``);
        typically the output of :func:`repro.data.dirichlet_partition`.
    test_dataset:
        Held-out data for accuracy measurements.
    attack:
        The Byzantine behavior deployed on every Byzantine PS. Required when
        ``config.num_byzantine > 0``.
    byzantine_ids:
        Which PSs are Byzantine. Default: a uniformly random subset of size
        ``B`` (their distribution is unknown to the clients, per the threat
        model).
    lr_schedule:
        Optional global-step learning-rate schedule (e.g. the Theorem 1
        policy); defaults to a constant ``config.learning_rate``.
    network:
        The simulated transport; a fresh loss-free :class:`Network` by
        default.
    fault_injector:
        Optional deterministic fault schedule (PS crashes, client
        dropouts, link partitions), driven once per round; the retry
        budget and backoff come from ``config.faults``.
    client_attack / num_byzantine_clients:
        The future-work extension: Byzantine *clients* that tamper with the
        local model they upload. They are a uniformly random subset, like
        the Byzantine PSs by default. ``client_attack`` is any object with
        a ``tamper(honest, start)`` method returning the vector to upload
        in place of the honestly trained ``honest``, given the round's
        ``start`` model (:class:`~repro.attacks.ClientSignFlipAttack`).
    server_rule:
        How benign PSs combine the uploads they receive. Default: the
        paper's plain average; pass a robust rule (e.g.
        ``make_rule("trimmed_mean", trim_ratio=...)``) to defend against
        Byzantine clients.
    """

    def __init__(self, config: FedMSConfig, *, model_factory: ModelFactory,
                 client_datasets: Sequence[ArrayDataset],
                 test_dataset: ArrayDataset,
                 attack: Optional[Attack] = None,
                 byzantine_ids: Optional[Sequence[int]] = None,
                 lr_schedule: Optional[Callable[[int], float]] = None,
                 weight_decay: float = 0.0,
                 network: Optional[Network] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 client_attack: Optional[ClientSignFlipAttack] = None,
                 num_byzantine_clients: int = 0,
                 server_rule: Optional[AggregationRule] = None) -> None:
        if num_byzantine_clients < 0:
            raise ConfigurationError(
                f"num_byzantine_clients must be >= 0, got "
                f"{num_byzantine_clients}")
        if num_byzantine_clients > 0 and client_attack is None:
            raise ConfigurationError(
                "num_byzantine_clients > 0 requires a client_attack")
        if 0 < num_byzantine_clients and \
                2 * num_byzantine_clients >= config.num_clients:
            raise ConfigurationError(
                f"Byzantine clients must be a strict minority: "
                f"2*{num_byzantine_clients} >= {config.num_clients}")
        refuse(config, "FedMSTrainer", "the flat topology has no client "
               "population and no aggregation tiers", **POPULATION_SETTINGS)
        super().__init__(config, model_factory=model_factory,
                         test_dataset=test_dataset, network=network)
        # Def(), quorum-aware: what every client runs on its inbox.
        self.filter_rule: ResolvedFilter = resolve_filter(
            config, model_factory=model_factory, root_dataset=test_dataset,
            root_rng=self.rngs.make("filter/root_batch"))

        if fault_injector is not None:
            self._attach_injector(fault_injector,
                                  num_clients=config.num_clients,
                                  num_servers=config.num_servers)

        # Broadcasts use the wire's trim-compatible variant: coordinate-wise
        # Def() filters need every honest PS to send the same support.
        self.broadcast_codec = self.wire.broadcast_codec

        self._resident_clients(model_factory, client_datasets,
                               lr_schedule=lr_schedule,
                               weight_decay=weight_decay)
        self._place_servers(attack, byzantine_ids,
                            aggregation_rule=server_rule)
        self.byzantine_client_ids = place_byzantine(
            None, count=num_byzantine_clients,
            total=config.num_clients, what="byzantine_client_ids",
            rng=self.rngs.make("byzantine/client_placement"))
        clients, servers = self.clients, self.servers
        every_server = range(config.num_servers)
        assignment_rng = self.rngs.make("upload/assignment")

        def start(k: int) -> np.ndarray:
            # The object the client adopted: its previous feasible model,
            # the fallback when this round's quorum is too small to filter.
            self._round.start_vectors[k] = clients[k].shared_model_vector()
            return clients[k].state

        def trained(k: int, state: np.ndarray, loss: float) -> np.ndarray:
            vector = self._adopt_trained(k, state, loss)
            start = self._round.start_vectors[k]
            if k in self.byzantine_client_ids:
                vector = client_attack.tamper(vector, start)
            # Nothing reads the trained model once it is uploaded: the
            # client ends the round on the filter's verdict or, failing
            # that, this start model. So the upload alone holds it; a
            # client keeping its buffers off the wire keeps the trained
            # ones, as the adoption would.
            clients[k].set_model_vector(start)
            return vector

        def targets(state: RoundState) -> List[List[int]]:
            # The strategy draws indices into the PSs not excluded: with
            # none excluded, exactly the unpooled assignment.
            candidates = [s for s in every_server if s not in state.excluded]
            return [[candidates[i] for i in picks]
                    for picks in assign_uploads(
                        config.upload_strategy, config.uploads_per_client,
                        len(state.cohort), len(candidates),
                        rng=assignment_rng)]

        # An excluded PS gets no uploads (``targets`` and re-routing skip
        # it) and sits the round out like a crashed one: its history
        # freezes until readmission.
        def close(n: int) -> None:
            if n not in self._round.excluded:
                servers[n].close()

        def adopt(k: int, verdict: Verdict) -> None:
            # No quorum the filter could safely use: undo this round's
            # local training rather than keep unfiltered drift or adopt an
            # adversary-controllable aggregate.
            vector = verdict.vector
            if vector is None:
                vector = self._round.start_vectors.get(k)
            if vector is not None:
                self._adopt(k, vector)

        broadcast = Leg(
            "dissemination", wire="broadcast",
            senders=tuple(NodeId.server(s) for s in every_server),
            receivers=[NodeId.client(k) for k in range(config.num_clients)],
            feeds=lambda k: every_server,
            model=lambda s, k, t, view: servers[s].disseminate(
                round_index=t, client_id=k, all_server_aggregates=view),
            per_receiver=lambda s: getattr(servers[s].attack,
                                           "is_client_dependent", False),
            adopt=adopt, gate="broadcast", retried=False,
            filter=self.filter_rule,
        )
        self._install(Topology(
            # Algorithm 1's three synchronised stages; every upload is
            # folded into its PS's mean as it lands, during ``train``.
            phases=(("train", (self._open, self._train)),
                    ("aggregate", (self._aggregate,)),
                    ("disseminate", (partial(self._send, broadcast),)),
                    ("filter", (partial(self._receive, broadcast),
                                self._advance))),
            nodes=servers, edges=config.num_servers,
            quorums=[(every_server, config.num_byzantine)],
            cohort=self._participants, start=start,
            trained=trained, targets=targets,
            fold=lambda n, upload, sender: servers[n].fold(upload),
            close=close,
            evaluate=self._evaluate_clients,
            # The consensus the filter just produced: client 0's model (on
            # the healthy path all clients coincide).
            reference=lambda: clients[0].shared_model_vector(),
            record=_record_clients, reroute=True,
        ))

    def _evaluate_clients(self) -> "tuple[float, float]":
        """Mean (loss, accuracy) over the first ``eval_clients`` clients;
        scored once when their vectors are bit-equal, as after a lossless
        round (compared by identity first: clients that adopted one filter
        output hold the same object)."""
        eval_clients = self.clients[:self.config.eval_clients]
        vectors = [client.shared_model_vector() for client in eval_clients]
        if all(vector is vectors[0] or np.array_equal(vectors[0], vector)
               for vector in vectors[1:]):
            loss, acc = eval_clients[0].evaluate(self.test_dataset)
            return float(loss), float(acc)
        losses, accuracies = zip(*self.score_clients(eval_clients))
        return float(np.mean(losses)), float(np.mean(accuracies))

    # -- persistence -----------------------------------------------------------

    def save_checkpoint(self, path: str) -> None:
        """Persist the run so :meth:`load_checkpoint` can resume it.

        Stores the current shared global model (client 0's — after a round
        all clients coincide up to client-dependent attacks), every PS's
        latest aggregate (the state Backward/Safeguard attacks depend on),
        and the round index. RNG streams are derived from (seed, names), so
        a resumed run is reproducible though not bit-identical to an
        uninterrupted one (the streams do not record their position).
        """
        payload: Dict[str, np.ndarray] = {
            "round_index": np.asarray(self.scheduler.round_index),
            "global_model": self.clients[0].model_vector(),
        }
        for server in self.servers:
            if server.aggregate_history:
                payload[f"server/{server.server_id}/aggregate"] = \
                    server.current_aggregate
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        np.savez(path, **payload)

    def load_checkpoint(self, path: str) -> int:
        """Restore a run saved by :meth:`save_checkpoint`.

        Returns the restored round index. The next :meth:`run_round`
        continues from there.
        """
        if not os.path.exists(path) and os.path.exists(path + ".npz"):
            path = path + ".npz"
        with np.load(path, allow_pickle=False) as archive:
            round_index = int(archive["round_index"])
            # An array of its own, not a view of the archive's bytes: only
            # an owner is shared by reference between the clients.
            global_model = frozen(np.array(archive["global_model"],
                                            dtype=DTYPE))
            for server in self.servers:
                key = f"server/{server.server_id}/aggregate"
                if key in archive.files:
                    server.aggregate_history = [
                        np.asarray(archive[key], dtype=DTYPE)]
        for client in self.clients:
            client.set_model_vector(global_model)
        self.scheduler.set_round_index(round_index)
        return round_index



def _record_clients(record: RoundRecord, state: RoundState) -> None:
    """What the clients' verdicts say. ``estimated_byzantine`` keeps the
    worst (largest) estimate and ``filtered_model_ids`` every PS any client
    rejected; max and union are idempotent, so clients sharing a verdict
    count once."""
    outcomes = state.outcomes["dissemination"]
    record.models_received = {k: q for k, (q, _) in outcomes.items()}
    (record.estimated_byzantine, record.filtered_model_ids,
     record.degraded_clients, record.fallback_clients) = tally(outcomes)
