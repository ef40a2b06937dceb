"""Set-up probe, run in a fresh interpreter: import asplan, then load the
embedded reference table and case-study data, with the speed gauge running
(see `gauge.py`), and print the stage times and the gauge reading as JSON.
Nothing is imported before asplan that asplan would not import itself.

    PYTHONPATH=src python3 perfbench/probe.py
"""

import json
import time

from gauge import SpeedGauge

with SpeedGauge() as gauge:
    start = gauge.now()
    import asplan

    imported = gauge.now()
    rows = asplan.load_golden_rows()
    data = asplan.case_study_data()
    loaded = gauge.now()
    probes, probe_s = gauge.reading()

print(json.dumps({
    "import_s": imported - start,
    "load_s": loaded - imported,
    "probes": probes,
    "probe_s": probe_s,
    "rows": len(rows),
    "lifetimes": len(data.values),
}))
