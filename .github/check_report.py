"""Check the JSON reports of ``vspline fit`` and ``vspline select``.

Each report named on the command line must be the text ``json.dumps``
writes with ``indent=2`` and ``sort_keys=True`` plus a newline, hold no
``NaN`` or ``Infinity`` token (which ``json.loads`` accepts but is not
JSON), and hold its knot fit once, as ``knot_fit``, with no
``coefficients`` object.  Prints one line per failed report and exits 1
if any failed.

    python .github/check_report.py fit.json sel.json ...
"""

import json
import sys


def _not_json(token):
    raise ValueError(f"holds {token}, which is not JSON")


def check(path):
    """The reason the report at ``path`` fails, or ``None``."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
        report = json.loads(text, parse_constant=_not_json)
    except (OSError, ValueError) as exc:
        return str(exc)
    if text != json.dumps(report, indent=2, sort_keys=True) + "\n":
        return "is not indented, key-sorted json.dumps text ending in a newline"
    if "knot_fit" not in report or "coefficients" in report:
        return "does not hold its knot fit once, as knot_fit alone"
    return None


def main(paths):
    failed = [(path, reason) for path in paths if (reason := check(path)) is not None]
    for path, reason in failed:
        print(f"{path}: {reason}", file=sys.stderr)
    return 1 if failed or not paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
