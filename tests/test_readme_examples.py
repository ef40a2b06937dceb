"""The README stays true to the code: its CLI examples print exactly the
recorded JSON, and its module list names the package's modules.

The goldens under tests/data/readme/ are the stdout of each example.  A
change that moves a printed digit re-records them and says why.
"""

import re
from pathlib import Path

import pytest

from asplan.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = ROOT / "tests" / "data" / "readme"
SSP = ["--family", "ssp", "--lambda0", "300", "--lambda1", "50", "--alpha", "0.05", "--beta", "0.05"]
RGSP_MIN = ["--family", "rgsp_min", *SSP[2:], "--a", "1500", "--b1", "0.05", "--b2", "0.05"]
EXAMPLES = {
    "design_ssp.json": ["design", *SSP, "--a", "1500", "--b1", "0.05", "--b2", "0.05"],
    "crisp_baseline_ssp.json": ["crisp-baseline", *SSP, "--a", "1500"],
    # At the default n_max 200; recorded from the loop over every group size.
    "design_rgsp_min.json": ["design", *RGSP_MIN],
    "design_rgsp_min_standard.json": ["design", *RGSP_MIN, "--membership-form", "standard"],
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
def test_readme_example_prints_its_golden(golden, capsys):
    assert main(EXAMPLES[golden]) == 0
    assert capsys.readouterr().out == (GOLDENS / golden).read_text(encoding="utf-8")


def test_readme_module_list_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\nModules:\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)`:", section, flags=re.MULTILINE)
    modules = {path.stem for path in (ROOT / "src" / "asplan").glob("*.py")}
    assert len(listed) == len(set(listed))
    assert set(listed) == modules - {"__init__", "errors"}
