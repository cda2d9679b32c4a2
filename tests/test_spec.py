"""The one spec codec (``repro.core.spec.Spec``) over every config class.

Each case is a non-default instance, so a field the codec dropped or
mis-ordered, or a nested spec it failed to rebuild, changes the dict or
breaks the round trip.
"""

import json
from dataclasses import fields

import pytest

from repro.blame.evidence import EvidenceSpec
from repro.blame.voting import BlameEvalSpec
from repro.checker.scenarios import CheckConfig, FaultScenario
from repro.core.spec import Spec
from repro.fleet.campaign import FleetCampaignSpec
from repro.fleet.controller import ControllerConfig
from repro.fleet.topology import CorruptionEpisode, FleetSpec
from repro.lifecycle.replay import ReplaySpec
from repro.lifecycle.slo import SloConfig
from repro.lifecycle.traces import FailureEvent, TraceSpec
from repro.runner.spec import ExperimentSpec, SweepSpec
from repro.service.app import ServiceSnapshot
from repro.service.config import ServiceConfig

_FLEET = FleetSpec(n_pods=2, tors_per_pod=2, fabrics_per_pod=2,
                   spine_uplinks=2, mttf_hours=900.0)
_CONTROLLER = ControllerConfig(activation_budget=4,
                               lg_deployment_fraction=0.5)
_TRACE = TraceSpec(fleet=_FLEET, duration_days=5.0, seed=3)
_CELL = ExperimentSpec(kind="fct", transport="bbr", loss_rate=1e-4,
                       backend="fastpath", lg={"ordered": False},
                       params={"workload": "web"}, obs={"spans": True})

SPECS = [
    _CELL,
    SweepSpec(name="s", base=_CELL, axes={"loss_rate": [1e-3, 1e-4]},
              seed=3),
    _FLEET,
    CorruptionEpisode(link_id=3, onset_s=1.0, clear_s=2.0, loss_rate=1e-3,
                      mean_burst=1.5, affected_fraction=0.1),
    _CONTROLLER,
    FleetCampaignSpec(fleet=_FLEET, controller=_CONTROLLER,
                      policy="greedy-worst", duration_days=5.0, n_shards=2,
                      backend="fastpath"),
    _TRACE,
    FailureEvent(time_s=1.0, link_id=2, loss_rate=1e-4, mean_burst=1.2,
                 event_index=1),
    SloConfig(goodput_target=0.9, affected_target=1e-2),
    ReplaySpec(trace=_TRACE, controller=_CONTROLLER, policy="greedy-worst",
               repair_params={"fast_days": 1.0}, backend="fastpath",
               n_chunks=2, slo=SloConfig(goodput_target=0.9)),
    EvidenceSpec(flows_per_s=100.0, coverage=0.5, seed=4),
    BlameEvalSpec(fleet=_FLEET, mode="trace", n_trials=3, seed=2),
    ServiceConfig(port=0, executor="thread", evidence="voting",
                  fleet=_FLEET, controller=_CONTROLLER, seed=5),
    ServiceSnapshot(config={"port": 0}, counts={"records_seen": 3},
                    decisions=[{"link_id": 1}], state={"evidence": "voting"}),
    CheckConfig(n_packets=80, seq_start=65_500, defect="wrong_copies",
                lg={"recirc_loop_ns": 2_000}),
    FaultScenario(name="t", drops=[{"kind": "data", "index": 3},
                                   {"kind": "notif", "index": 0}],
                  flaps=[{"at_frame": 10, "frames": 2}],
                  ge={"rate": 5e-4, "mean_burst": 1.35}, nb_switch_ns=5_000),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
class TestSpecCodec:
    def test_every_class_is_a_spec(self, spec):
        assert isinstance(spec, Spec)

    def test_keys_are_the_fields_in_order(self, spec):
        data = spec.to_dict()
        assert list(data) == [f.name for f in fields(spec)]
        json.dumps(data)  # nested specs are plain dicts

    def test_round_trip(self, spec):
        assert type(spec).from_dict(spec.to_dict()) == spec

    def test_unknown_key_names_the_class(self, spec):
        name = type(spec).__name__
        with pytest.raises(ValueError,
                           match=rf"unknown {name} fields: \['bogus'\]"):
            type(spec).from_dict({**spec.to_dict(), "bogus": 1})

    def test_non_dict_is_refused(self, spec):
        with pytest.raises(ValueError, match=type(spec).__name__):
            type(spec).from_dict([1, 2])


def test_nested_unknown_key_names_the_nested_class():
    with pytest.raises(ValueError, match=r"unknown FleetSpec fields"):
        ReplaySpec.from_dict({"trace": {"fleet": {"bogus": 1}}})


def test_missing_keys_take_the_defaults():
    assert ReplaySpec.from_dict({"trace": {}}) == ReplaySpec()


def test_experiment_spec_omits_an_empty_obs():
    plain = ExperimentSpec(kind="fct")
    assert list(plain.to_dict()) == [
        f.name for f in fields(plain) if f.name != "obs"]
    assert ExperimentSpec.from_dict(plain.to_dict()) == plain


def test_dict_values_are_copied():
    data = _CELL.to_dict()
    data["lg"]["ordered"] = True
    assert _CELL.lg == {"ordered": False}


def test_fault_scenario_sorts_its_drops():
    scenario = FaultScenario(drops=[{"kind": "retx", "index": 1},
                                    {"kind": "data", "index": 4}])
    assert scenario.to_dict()["drops"] == [
        {"kind": "data", "index": 4}, {"kind": "retx", "index": 1}]
