"""Golden seed-42 report: the whole catalog at 500 samples per case plus
every probe, reproduced byte for byte apart from ``wall_time``.

The file is never regenerated to absorb a diff.  An intended numerical
change goes in as one reviewed diff of the file, each changed value
listed in CHANGES.md next to its old value and a 50-digit mpmath
evaluation.  ``golden_text()`` is the function that writes it.
"""

import json
from pathlib import Path

from hypmetrics.cli import main

GOLDEN = Path(__file__).parent / "golden" / "seed42.json"


def _records(tmp_dir: Path, argv: list[str], name: str) -> tuple[int, list]:
    out = tmp_dir / name
    code = main([*argv, "--format", "json", "--out", str(out)])
    records = json.loads(out.read_text(encoding="utf-8"))
    for rec in records:
        del rec["wall_time"]
    return code, records


def golden_text(tmp_dir: Path) -> tuple[int, int, str]:
    """Exit codes of ``verify`` and ``probe`` and the combined report,
    serialized as ``records_to_json`` does."""
    verify_code, verify = _records(tmp_dir, ["verify", "--samples", "500", "--seed", "42"], "verify.json")
    probe_code, probe = _records(tmp_dir, ["probe"], "probe.json")
    text = json.dumps({"verify": verify, "probe": probe}, indent=2, ensure_ascii=False, allow_nan=False)
    return verify_code, probe_code, text + "\n"


def test_seed42_report_matches_the_golden_file(tmp_path):
    verify_code, probe_code, text = golden_text(tmp_path)
    # T-ALJ is the known counterexample and P5 misses its tolerance
    assert (verify_code, probe_code) == (1, 1)
    golden = GOLDEN.read_text(encoding="utf-8")
    assert text == golden
