#!/usr/bin/env python
"""Regenerate a specific figure of the paper (thin CLI wrapper).

Equivalent to ``repro-experiments --figure N`` but kept as an example to
show how to drive the harness programmatically (including CSV export of
the series for external plotting).

Run:  python examples/paper_figures.py --figure 3 [--scale smoke|quick|paper]
"""

from __future__ import annotations

import argparse

from repro.experiments.config import resolve_scale
from repro.experiments.export import campaign_to_csv
from repro.experiments.figures import FIGURES, figure7
from repro.experiments.reporting import (
    format_campaign_charts,
    format_campaign_table,
    format_timing_table,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figure", choices=list(FIGURES), required=True)
    parser.add_argument("--scale", default="smoke")
    parser.add_argument(
        "--csv", metavar="PATH", help="also write the series as CSV"
    )
    args = parser.parse_args()

    cfg = resolve_scale(args.scale)
    if args.figure == "7":
        result = figure7(cfg)
        print(format_timing_table(result.timings))
        return 0

    result = FIGURES[args.figure](cfg, progress=True)
    print(format_campaign_table(result))
    print(format_campaign_charts(result))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(campaign_to_csv(result))
        print(f"series written to {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
