"""Golden seed-42 report: the whole catalog at 500 samples per case plus
every probe, reproduced byte for byte apart from ``wall_time``.

The file is never regenerated to absorb a diff.  An intended numerical
change goes in as one reviewed diff of the file, each changed value
listed in CHANGES.md next to its old value and a 50-digit mpmath
evaluation.  ``golden_text()`` is the function that writes it.
"""

import json
from itertools import zip_longest
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


def changed_fields(golden: str, text: str) -> list[tuple]:
    """(record id, field, golden value, new value) for each field of each
    record that differs between two serialized reports."""
    old, new = json.loads(golden), json.loads(text)
    out = []
    for section in ("verify", "probe"):
        for a, b in zip_longest(old[section], new[section], fillvalue={}):
            rid = a.get("case_id", b.get("case_id"))
            out += [(rid, k, a.get(k), b.get(k)) for k in dict.fromkeys([*a, *b]) if a.get(k) != b.get(k)]
    return out


def test_seed42_report_matches_the_golden_file(tmp_path):
    verify_code, probe_code, text = golden_text(tmp_path)
    # T-ALJ is the known counterexample and P5 misses its tolerance
    assert (verify_code, probe_code) == (1, 1)
    golden = GOLDEN.read_text(encoding="utf-8")
    if text != golden:
        rows = "\n".join(map(repr, changed_fields(golden, text)))
        raise AssertionError(f"report differs from {GOLDEN.name}; (id, field, golden, new):\n{rows}")
