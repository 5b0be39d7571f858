"""Regenerate ``perfbench/reference.json``: the frozen float64 outputs
the benchmark checks every run against.

It records the A/B MRR, NDCG and HR@100 of one ``eval-1to99`` pass and
the epoch losses of one ``train-mgbr`` epoch.  Run it only when a change
is meant to alter those outputs::

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run.prepare_environment()
    from workloads import WORKLOADS

    table = {}
    for workload in WORKLOADS.values():
        if workload.needs_reference:
            state = workload.setup(0)
            table[workload.name] = workload.reference(state)
            workload.close(state)
    (run.HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
