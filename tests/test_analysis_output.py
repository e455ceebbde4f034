"""Report surfaces: SARIF 2.1.0 output, baseline workflow, --explain, severities."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, load_baseline, to_sarif, write_baseline
from repro.analysis.cli import main
from repro.analysis.core import RULES, _load_rule_modules

REPO = Path(__file__).resolve().parent.parent

TAINTED = textwrap.dedent(
    """
    import time

    class Engine:
        def tick(self):
            self.now = time.time()
    """
)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def _plant(tmp_path: Path, text: str = TAINTED) -> Path:
    target = tmp_path / "repro" / "simulator"
    target.mkdir(parents=True)
    probe = target / "probe.py"
    probe.write_text(text)
    return probe


# -- SARIF --------------------------------------------------------------------------


def test_sarif_document_structure(tmp_path):
    _plant(tmp_path)
    report = analyze_paths([tmp_path])
    doc = to_sarif(report)
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.analysis"
    rule_ids = {r["id"] for r in driver["rules"]}
    assert {"DET010", "DIM001", "CACHE001", "ENG006", "DRIVER001"} <= rule_ids
    # severity mapping: error->error, warn->warning, info->note
    levels = {r["id"]: r["defaultConfiguration"]["level"] for r in driver["rules"]}
    assert levels["DET010"] == "error"
    assert levels["DET011"] == "warning"
    # results carry locations and refer back to the rule catalogue
    assert run["results"], "expected findings from the tainted fixture"
    for result in run["results"]:
        assert result["ruleId"] in rule_ids
        loc = result["locations"][0]["physicalLocation"]
        assert loc["region"]["startLine"] >= 1
        assert loc["artifactLocation"]["uri"].endswith("probe.py")


def test_sarif_validates_against_schema(tmp_path):
    """Validate against the vendored SARIF 2.1.0 structural subset schema.

    The subset transcribes the official schema's required properties and
    enums for everything the emitter produces (the official schema is a
    strict superset), so validation runs offline in CI and locally.
    """
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = REPO / "tests" / "data" / "sarif-2.1.0-subset.schema.json"
    schema = json.loads(schema_path.read_text())
    _plant(tmp_path)
    doc = to_sarif(analyze_paths([tmp_path]))
    jsonschema.validate(doc, schema)
    # and the real tree's (empty-results) document validates too
    clean = to_sarif(analyze_paths([REPO / "src" / "repro" / "analysis"]))
    jsonschema.validate(clean, schema)


def test_sarif_minimal_wellformedness():
    """Offline structural checks for the SARIF 2.1.0 required properties."""
    doc = to_sarif(analyze_paths([REPO / "src" / "repro" / "analysis"]))
    assert set(doc) >= {"$schema", "version", "runs"}
    run = doc["runs"][0]
    assert "tool" in run and "driver" in run["tool"]
    for rule in run["tool"]["driver"]["rules"]:
        assert set(rule) >= {"id", "name", "shortDescription", "defaultConfiguration"}
        assert rule["shortDescription"]["text"]
    for result in run["results"]:
        assert set(result) >= {"ruleId", "level", "message", "locations"}


def test_cli_sarif_output_and_stdout(tmp_path):
    _plant(tmp_path)
    out = tmp_path / "findings.sarif"
    proc = run_cli("--format", "sarif", "--sarif-output", str(out), str(tmp_path))
    assert proc.returncode == 1  # fixture has error-tier findings
    on_disk = json.loads(out.read_text())
    on_stdout = json.loads(proc.stdout)
    assert on_disk == on_stdout
    assert on_disk["runs"][0]["results"]


def test_sarif_baseline_states(tmp_path):
    probe = _plant(tmp_path)
    baseline = {f.baseline_key for f in analyze_paths([tmp_path]).findings}
    # add a *new* finding beyond the baselined one
    probe.write_text(TAINTED + "\nimport numpy as np\nrng = np.random.default_rng(3)\n")
    report = analyze_paths([tmp_path], baseline=baseline)
    doc = to_sarif(report, baseline_used=True)
    states = {r["ruleId"]: r["baselineState"] for r in doc["runs"][0]["results"]}
    assert states["ENG005"] == "new"
    assert states["DET010"] == "unchanged"


# -- baseline workflow --------------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    _plant(tmp_path)
    report = analyze_paths([tmp_path])
    assert not report.ok
    bl = tmp_path / "baseline.json"
    write_baseline(report, bl)
    keys = load_baseline(bl)
    assert keys == {f.baseline_key for f in report.findings}
    # with the baseline applied, the same tree is accepted
    again = analyze_paths([tmp_path], baseline=keys)
    assert again.ok
    assert again.findings == []
    assert {f.baseline_key for f in again.baselined} == keys


def test_baseline_keys_ignore_line_numbers(tmp_path):
    probe = _plant(tmp_path)
    keys = {f.baseline_key for f in analyze_paths([tmp_path]).findings}
    # prepend unrelated lines: line numbers shift, keys must not
    probe.write_text("# a comment\n# another\n" + TAINTED)
    moved = analyze_paths([tmp_path], baseline=keys)
    assert moved.ok and moved.findings == []


def test_baseline_rejects_malformed_files(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text("[]")
    with pytest.raises(ValueError):
        load_baseline(bad)


def test_cli_write_baseline_then_gate(tmp_path):
    _plant(tmp_path)
    bl = tmp_path / "baseline.json"
    assert main(["--baseline", str(bl), "--write-baseline", str(tmp_path)]) == 0
    assert main(["--baseline", str(bl), str(tmp_path)]) == 0
    # without the baseline the same tree still fails
    assert main([str(tmp_path)]) == 1


def test_cli_write_baseline_requires_baseline_path():
    proc = run_cli("--write-baseline", "src/repro")
    assert proc.returncode == 2
    assert "--baseline" in proc.stderr


def test_self_lint_clean_against_committed_baseline():
    """Regression gate: the tree must stay clean under the committed baseline."""
    baseline_file = REPO / "analysis_baseline.json"
    assert baseline_file.exists()
    baseline = load_baseline(baseline_file)
    report = analyze_paths([REPO / "src" / "repro"], baseline=baseline)
    assert report.parse_errors == []
    assert report.findings == [], "\n".join(f.format() for f in report.findings)
    # the committed baseline carries no accepted findings today; if this
    # grows, each entry needs a justification in the PR that adds it
    assert baseline == set()


# -- severities and --explain -------------------------------------------------------


def test_severities_in_json_report(tmp_path):
    _plant(tmp_path)
    payload = json.loads(run_cli("--format", "json", str(tmp_path)).stdout)
    severities = {f["rule"]: f["severity"] for f in payload["findings"]}
    assert severities.get("DET010") == "error"


def test_warn_findings_do_not_gate_exit_status(tmp_path):
    target = tmp_path / "repro" / "experiments"
    target.mkdir(parents=True)
    (target / "probe.py").write_text(
        textwrap.dedent(
            """
            def total():
                xs = {1.0, 2.5}
                return sum(xs)  # DET012, warn tier
            """
        )
    )
    proc = run_cli("--format", "json", str(tmp_path))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert {f["rule"] for f in payload["findings"]} == {"DET012"}


def test_every_rule_has_explain_content():
    _load_rule_modules()
    for rule in RULES.values():
        assert (type(rule).__doc__ or "").strip(), f"{rule.rule_id} lacks a rationale"
    # the new families additionally ship fix text and an example
    for rule_id in ("DET010", "DET011", "DET012", "DIM001", "DIM002",
                    "CACHE001", "SWEEP001", "DRIVER001"):
        rule = RULES[rule_id]
        assert rule.fix, f"{rule_id} lacks fix text"
        assert rule.example, f"{rule_id} lacks an example"


@pytest.mark.parametrize("rule_id", ["DET010", "DIM001", "CACHE001"])
def test_cli_explain(rule_id):
    proc = run_cli("--explain", rule_id)
    assert proc.returncode == 0
    assert rule_id in proc.stdout
    assert f"repro: ignore[{rule_id}]" in proc.stdout
    assert "Fix:" in proc.stdout


def test_cli_explain_unknown_rule_is_usage_error():
    proc = run_cli("--explain", "NOPE99")
    assert proc.returncode == 2
