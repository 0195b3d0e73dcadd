"""Traced daemon launcher: install span wrappers, then run the program's CLI.

Usage::

    PYTHONPATH=src python3 perfbench/launch.py <spans.json> serve [serve options]

Runs ``repro.cli.main`` with the remaining arguments in this process, so
the daemon is the same program as ``python -m repro serve``; when it shuts
down, the aggregated spans and kernel-tier counters go to ``<spans.json>``.
"""

from __future__ import annotations

import json
import sys

import spans


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    sites = tracer.install()
    from repro.cli import main as cli_main

    code = cli_main(argv)
    payload = {**tracer.snapshot(), "sites": sites, "tiers": spans.kernel_tiers()}
    with open(out_path, "w") as handle:
        json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
