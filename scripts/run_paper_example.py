#!/usr/bin/env python3
"""Run the built-in end-to-end example (E = 21a4, A = 1950y1, p = 5) and
print both the narrative and the canonical JSON report."""
import sys

from dualselmer.cli import (
    dumps_canonical,
    paper_example_report,
    render_text,
    report_to_dict,
)


def main() -> int:
    report = paper_example_report()
    sys.stdout.write(render_text(report))
    sys.stdout.write("\n")
    sys.stdout.write(dumps_canonical(report_to_dict(report)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
