"""Campaign runner: batteries, retry, resume, parallel determinism, and
the planted-violation acceptance check."""

from __future__ import annotations

import pytest

from repro.campaign.database import CampaignDB
from repro.campaign.oracles import OracleConfig
from repro.core.cache import CorruptArtifactWarning
from repro.campaign.runner import run_campaign
from repro.campaign.schema import Scenario
from repro.core.machine import PRESETS
from repro.simulator.faults import FaultPlan

M = PRESETS["cm5"]


def battery(count: int = 3) -> list[Scenario]:
    return [
        Scenario(machine=M, algorithms=("cannon",), n_values=(16,),
                 p_values=(4, 16), seed=i)
        for i in range(count)
    ]


def db_bytes(prefix) -> bytes:
    return CampaignDB(prefix).jsonl_path.read_bytes()


class TestRun:
    def test_battery_lands_in_order_with_summary(self, tmp_path):
        summary = run_campaign(battery(), str(tmp_path / "camp"))
        assert (summary.total, summary.executed, summary.ok) == (3, 3, 3)
        assert summary.anomalous == summary.failed == summary.anomalies == 0
        recs = list(CampaignDB(tmp_path / "camp").records())
        assert [r["index"] for r in recs] == [0, 1, 2]
        assert summary.fingerprint == CampaignDB(tmp_path / "camp").fingerprint()
        assert (tmp_path / "camp.sqlite").exists()

    def test_duplicate_scenarios_rejected(self, tmp_path):
        s = battery(1)[0]
        with pytest.raises(ValueError, match="duplicate scenarios"):
            run_campaign([s, s], str(tmp_path / "camp"))

    @pytest.mark.parametrize("kwargs, fragment", [
        ({"retries": -1}, "retries"),
        ({"backoff": 0.5}, "backoff"),
    ])
    def test_parameter_validation(self, tmp_path, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            run_campaign(battery(1), str(tmp_path / "camp"), **kwargs)

    def test_planted_violation_is_detected(self, tmp_path):
        # acceptance check: tightening the model tolerance to ~zero turns
        # ordinary model/simulator slack into a reported anomaly
        summary = run_campaign(
            battery(1), str(tmp_path / "camp"),
            oracles=OracleConfig(model_rel_tol=1e-12, divergence=False),
        )
        assert summary.anomalous == 1
        assert summary.anomalies >= 1
        rec = next(CampaignDB(tmp_path / "camp").records())
        assert rec["status"] == "anomalous"
        assert {a["oracle"] for a in rec["anomalies"]} == {"model-disagreement"}


class TestRetry:
    def test_flaky_scenario_is_retried(self, tmp_path):
        calls = {}

        def flaky(scenario, cfg):
            calls[scenario.seed] = calls.get(scenario.seed, 0) + 1
            if scenario.seed == 1 and calls[scenario.seed] == 1:
                raise OSError("transient")
            from repro.campaign.executor import execute_scenario
            return execute_scenario(scenario, cfg)

        summary = run_campaign(battery(), str(tmp_path / "camp"),
                               retries=1, _execute_fn=flaky)
        assert summary.ok == 3 and summary.failed == 0
        recs = {r["index"]: r for r in CampaignDB(tmp_path / "camp").records()}
        assert recs[1]["attempts"] == 2
        assert recs[0]["attempts"] == recs[2]["attempts"] == 1

    def test_exhausted_retries_record_a_failure(self, tmp_path):
        def always_dies(scenario, cfg):
            raise RuntimeError("persistent failure")

        summary = run_campaign(battery(2), str(tmp_path / "camp"),
                               retries=2, _execute_fn=always_dies)
        assert summary.failed == 2 and summary.ok == 0
        for rec in CampaignDB(tmp_path / "camp").records():
            assert rec["status"] == "failed"
            assert rec["attempts"] == 3
            assert "persistent failure" in rec["error"]
            assert rec["rows"] is None


class TestResume:
    def test_resume_skips_done_and_matches_uninterrupted(self, tmp_path):
        scenarios = battery(4)
        run_campaign(scenarios, str(tmp_path / "full"))
        full = db_bytes(tmp_path / "full")

        # simulate SIGKILL mid-battery: header + two records land intact,
        # the third is cut mid-line
        lines = full.split(b"\n")
        partial = b"\n".join(lines[:3]) + b"\n" + lines[3][: len(lines[3]) // 2]
        (tmp_path / "part.jsonl").write_bytes(partial)

        with pytest.warns(CorruptArtifactWarning):
            resumed = run_campaign(scenarios, str(tmp_path / "part"), resume=True)
        assert resumed.executed == 2
        assert (resumed.ok, resumed.total) == (4, 4)
        assert db_bytes(tmp_path / "part") == full
        assert resumed.fingerprint == CampaignDB(tmp_path / "full").fingerprint()

    def test_complete_campaign_resumes_to_a_no_op(self, tmp_path):
        scenarios = battery(2)
        first = run_campaign(scenarios, str(tmp_path / "camp"))
        again = run_campaign(scenarios, str(tmp_path / "camp"), resume=True)
        assert again.executed == 0
        assert again.fingerprint == first.fingerprint

    def test_resume_with_different_oracles_fails_loudly(self, tmp_path):
        scenarios = battery(2)
        run_campaign(scenarios, str(tmp_path / "camp"))
        with pytest.raises(ValueError, match="different battery"):
            run_campaign(scenarios, str(tmp_path / "camp"), resume=True,
                         oracles=OracleConfig(model_rel_tol=0.5))


class TestParallel:
    def test_jobs_produce_identical_bytes(self, tmp_path):
        scenarios = battery(5)
        run_campaign(scenarios, str(tmp_path / "serial"))
        run_campaign(scenarios, str(tmp_path / "pooled"), jobs=3)
        assert db_bytes(tmp_path / "serial") == db_bytes(tmp_path / "pooled")

    def test_pool_failure_falls_back_inline(self, tmp_path):
        # an unpicklable executor breaks every worker task; the runner
        # must recover inline and still finish the battery in order
        summary = run_campaign(
            battery(3), str(tmp_path / "camp"), jobs=2, retries=1,
            _execute_fn=lambda s, c: _inline_execute(s, c),
        )
        assert summary.ok == 3
        recs = list(CampaignDB(tmp_path / "camp").records())
        assert [r["index"] for r in recs] == [0, 1, 2]
        ref = run_campaign(battery(3), str(tmp_path / "ref"))
        a = [_strip_attempts(r) for r in recs]
        b = [_strip_attempts(r) for r in CampaignDB(tmp_path / "ref").records()]
        assert a == b


class TestFaultBattery:
    def test_mixed_fault_battery_is_clean_and_deterministic(self, tmp_path):
        scenarios = [
            Scenario(machine=M, algorithms=("cannon",), n_values=(16,), p_values=(4,),
                     fault_plan=FaultPlan(seed=9, drop_rate=0.1, timeout=500.0)),
            Scenario(machine=M, algorithms=("cannon",), n_values=(16,), p_values=(4,),
                     fault_plan=FaultPlan(seed=9, straggler_rate=0.5,
                                          straggler_factor=3.0), scheduler="rescan"),
            Scenario(machine=M, algorithms=("gk",), n_values=(16,), p_values=(8,),
                     fault_plan=FaultPlan(horizon=1e8, crash_times=((1, 100.0),),
                                          checkpoint_interval=50.0,
                                          recovery_cost=10.0)),
        ]
        s1 = run_campaign(scenarios, str(tmp_path / "a"))
        s2 = run_campaign(scenarios, str(tmp_path / "b"))
        assert s1.ok == 3 and s1.anomalies == 0
        assert db_bytes(tmp_path / "a") == db_bytes(tmp_path / "b")


def _inline_execute(scenario, cfg):
    from repro.campaign.executor import execute_scenario

    return execute_scenario(scenario, cfg)


def _strip_attempts(rec):
    out = dict(rec)
    out.pop("attempts", None)
    return out
