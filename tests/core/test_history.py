"""Tests for TrainingHistory/RoundRecord."""

import dataclasses
import json

from repro.core import RoundRecord, TrainingHistory


def record(i, acc=None, loss=1.0, uploads=5, upload_bytes=40):
    return RoundRecord(round_index=i, train_loss=loss, test_accuracy=acc,
                       upload_messages=uploads, upload_bytes=upload_bytes)


def json_rows(history):
    """The records as they come back from JSON."""
    return json.loads(json.dumps(
        [dataclasses.asdict(r) for r in history.records]))


class TestTrainingHistory:
    def test_empty_history(self):
        history = TrainingHistory()
        assert len(history) == 0
        assert history.final_accuracy is None
        assert history.best_accuracy is None
        assert history.accuracies == []

    def test_append_and_rounds(self):
        history = TrainingHistory()
        history.append(record(0))
        history.append(record(1))
        assert history.rounds == [0, 1]
        assert len(history) == 2

    def test_accuracies_skip_unevaluated_rounds(self):
        history = TrainingHistory()
        history.append(record(0, acc=0.2))
        history.append(record(1, acc=None))
        history.append(record(2, acc=0.5))
        assert history.accuracies == [0.2, 0.5]
        assert history.evaluated_rounds == [0, 2]

    def test_final_and_best_accuracy(self):
        history = TrainingHistory()
        history.append(record(0, acc=0.7))
        history.append(record(1, acc=0.4))
        assert history.final_accuracy == 0.4
        assert history.best_accuracy == 0.7

    def test_communication_totals(self):
        history = TrainingHistory()
        history.append(record(0, uploads=50, upload_bytes=400))
        history.append(record(1, uploads=50, upload_bytes=400))
        assert history.total_upload_messages == 100
        assert history.total_upload_bytes == 800

    def test_to_dict_roundtrip_keys(self):
        history = TrainingHistory()
        history.append(record(0, acc=0.3))
        rows = json_rows(history)
        assert rows == [dataclasses.asdict(history.records[0])]
        assert rows[0]["test_accuracy"] == 0.3
        assert rows[0]["upload_messages"] == 5

    def test_train_losses(self):
        history = TrainingHistory()
        history.append(record(0, loss=2.0))
        history.append(record(1, loss=1.0))
        assert [r.train_loss for r in history.records] == [2.0, 1.0]


class TestEstimatingFilterFields:
    def make_history(self):
        history = TrainingHistory()
        history.append(RoundRecord(round_index=0, train_loss=1.0,
                                   estimated_byzantine=2,
                                   filtered_model_ids=[0, 3]))
        history.append(RoundRecord(round_index=1, train_loss=0.9,
                                   estimated_byzantine=1,
                                   filtered_model_ids=[3]))
        history.append(RoundRecord(round_index=2, train_loss=0.8))
        return history

    def test_defaults_are_empty(self):
        record = RoundRecord(round_index=0, train_loss=1.0)
        assert record.estimated_byzantine is None
        assert record.filtered_model_ids == []

    def test_trace_preserves_gaps(self):
        assert self.make_history().estimated_byzantine_trace == [2, 1, None]

    def test_mean_skips_missing_estimates(self):
        assert self.make_history().mean_estimated_byzantine == 1.5

    def test_mean_none_when_nothing_estimated(self):
        history = TrainingHistory()
        history.append(RoundRecord(round_index=0, train_loss=1.0))
        assert history.mean_estimated_byzantine is None

    def test_filtered_model_id_counts(self):
        assert self.make_history().filtered_model_id_counts == {0: 1, 3: 2}

    def test_to_dict_includes_robustness_fields(self):
        rows = json_rows(self.make_history())
        assert [row["estimated_byzantine"] for row in rows] == [2, 1, None]
        assert [row["filtered_model_ids"] for row in rows] == [[0, 3], [3], []]
