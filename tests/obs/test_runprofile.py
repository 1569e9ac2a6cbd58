"""Unit tests for the per-phase run profile."""

import json

import pytest

from repro.experiments.matrix import MatrixConfig, run_matrix
from repro.obs import trace
from repro.obs.runprofile import PHASE_NAMES, RunProfile


def span_record(name, span_id, parent, ts, dur):
    return {
        "kind": "span",
        "name": name,
        "id": span_id,
        "parent": parent,
        "depth": 0 if parent is None else 1,
        "ts": ts,
        "dur_s": dur,
    }


class TestFromEvents:
    def test_self_time_excludes_direct_children(self):
        events = [
            span_record("simulate", "s1", "o1", ts=0.1, dur=3.0),
            span_record("simulate", "s2", "o1", ts=3.2, dur=2.0),
            span_record("optimize", "o1", None, ts=0.0, dur=6.0),
        ]
        profile = RunProfile.from_events(events)
        optimize = profile.phases["optimize"]
        assert optimize.total_s == 6.0
        assert optimize.self_s == 1.0  # 6 - (3 + 2)
        simulate = profile.phases["simulate"]
        assert simulate.count == 2
        assert simulate.self_s == 5.0
        assert simulate.min_s == 2.0
        assert simulate.max_s == 3.0

    def test_weights_alias_maps_to_weight_accumulate(self):
        events = [span_record("weights", "w1", None, ts=0.0, dur=1.0)]
        profile = RunProfile.from_events(events)
        assert "weight-accumulate" in profile.phases
        assert "weights" not in profile.phases

    def test_point_events_are_counted_but_not_profiled(self):
        events = [
            {"kind": "event", "name": "ce-round", "id": "e1", "ts": 0.0},
            span_record("simulate", "s1", None, ts=0.0, dur=1.0),
        ]
        profile = RunProfile.from_events(events)
        assert profile.events_seen == 2
        assert set(profile.phases) == {"simulate"}

    def test_wall_spans_first_start_to_last_end(self):
        events = [
            span_record("simulate", "a", None, ts=10.0, dur=1.0),
            span_record("simulate", "b", None, ts=14.0, dur=2.0),
        ]
        assert RunProfile.from_events(events).wall_s == 6.0

    def test_empty(self):
        profile = RunProfile.from_events([])
        assert profile.phases == {}
        assert profile.wall_s == 0.0
        assert "no spans captured" in profile.render()


class TestOutput:
    def test_payload_orders_canonical_phases_first(self):
        events = [
            span_record("custom-phase", "c", None, ts=0.0, dur=9.0),
            span_record("store-get", "g", None, ts=0.0, dur=1.0),
            span_record("simulate", "s", None, ts=0.0, dur=1.0),
        ]
        payload = RunProfile.from_events(events).to_payload()
        names = [phase["name"] for phase in payload["phases"]]
        assert names == ["simulate", "store-get", "custom-phase"]
        assert payload["events_seen"] == 3

    def test_to_json_round_trips(self):
        events = [span_record("simulate", "s", None, ts=0.0, dur=0.5)]
        document = json.loads(RunProfile.from_events(events).to_json())
        assert document["phases"][0]["name"] == "simulate"
        assert document["phases"][0]["count"] == 1

    def test_render_lists_every_phase(self):
        events = [
            span_record(name, f"id-{name}", None, ts=0.0, dur=0.1) for name in PHASE_NAMES
        ]
        rendered = RunProfile.from_events(events).render()
        for name in PHASE_NAMES:
            assert name in rendered
        assert "self %" in rendered


class TestLiveIntegration:
    def test_profile_from_real_spans(self):
        prior = trace.status()
        trace.reset()
        trace.configure(enabled=True)
        try:
            with trace.span("optimize"):
                with trace.span("simulate"):
                    pass
            profile = RunProfile.from_events(trace.events())
        finally:
            trace.configure(enabled=bool(prior["enabled"]))
            trace.reset()
        assert profile.phases["optimize"].count == 1
        assert profile.phases["simulate"].count == 1
        assert profile.phases["optimize"].self_s <= profile.phases["optimize"].total_s


class TestEstimatorPhases:
    """Each proposal search profiles under its own phase."""

    def _phases(self, estimator):
        prior = trace.status()
        trace.reset()
        trace.configure(enabled=True)
        try:
            run_matrix(
                MatrixConfig(
                    studies=("illustrative",),
                    estimators=(estimator,),
                    repetitions=1,
                    n_samples=400,
                    search_rounds=20,
                    quick=True,
                )
            )
            profile = RunProfile.from_events(trace.events())
        finally:
            trace.configure(enabled=bool(prior["enabled"]))
            trace.reset()
        return profile.phases

    def test_ce_cell_reports_ce_refine(self):
        phases = self._phases("ce")
        assert phases["ce-refine"].count == 1
        assert "optimize" not in phases
        assert phases["simulate"].count >= 2

    def test_imcis_cell_reports_optimize(self):
        phases = self._phases("imcis")
        assert phases["optimize"].count == 1
        assert "ce-refine" not in phases

    def test_imcis_optimize_splits_per_block(self):
        """One ``candidate-sample`` and one ``objective`` span per block of rounds."""
        phases = self._phases("imcis")
        sample, objective = phases["candidate-sample"], phases["objective"]
        assert sample.count == objective.count >= 1
        children = sample.total_s + objective.total_s
        assert children <= phases["optimize"].total_s
        assert phases["optimize"].self_s == pytest.approx(
            phases["optimize"].total_s - children, abs=1e-9
        )
