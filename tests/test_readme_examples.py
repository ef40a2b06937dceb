"""The README's CLI examples print exactly the recorded JSON.

The goldens under tests/data/readme/ are the stdout of each example.  A
change that moves a printed digit re-records them and says why.
"""

from pathlib import Path

import pytest

from asplan.cli import main

GOLDENS = Path(__file__).resolve().parent / "data" / "readme"
SSP = ["--family", "ssp", "--lambda0", "300", "--lambda1", "50", "--alpha", "0.05", "--beta", "0.05"]
EXAMPLES = {
    "design_ssp.json": ["design", *SSP, "--a", "1500", "--b1", "0.05", "--b2", "0.05"],
    "crisp_baseline_ssp.json": ["crisp-baseline", *SSP, "--a", "1500"],
    "design_type1.json": [
        "design", "--family", "type1", "--tau", "50", "--lambda0", "300", "--lambda1", "200",
        "--alpha", "0.01", "--beta", "0.01", "--a", "15000", "--b1", "0.01", "--b2", "0.01",
        "--objective-variant", "etc_upper_bound",
    ],
    "dispose_case_study.json": [
        "dispose", "--data", "case-study", "--family", "ssp", "--t1", "41", "--t2", "3159"
    ],
}


@pytest.mark.parametrize("golden", sorted(EXAMPLES))
def test_readme_example_prints_its_golden(golden, capsys, monkeypatch):
    monkeypatch.delenv("ASP_SEED", raising=False)
    assert main(EXAMPLES[golden]) == 0
    assert capsys.readouterr().out == (GOLDENS / golden).read_text(encoding="utf-8")
