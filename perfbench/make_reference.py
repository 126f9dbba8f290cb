#!/usr/bin/env python3
"""Write perfbench/reference.json: the checked answers to the first schedule
cycle of every workload at seed 0.

    python3 perfbench/make_reference.py

run.py compares seed-0 runs against this file: exact answers must match
exactly and character-sum magnitudes within 1e-6.  Regenerate it only when
a change is meant to alter answers, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    out = {}
    for workload in workloads.WORKLOADS:
        addix, fields, _, _ = run.setup(workload)
        stream = workloads.requests(addix, fields, workload, 0)
        answers = []
        for _ in range(workloads.cycle_length(workload)):
            req = next(stream)
            result = workloads.execute(addix, fields, req)
            error = workloads.check(addix, fields, req, result)
            if error is not None:
                print(f"{workload} request {req.index}: {error}", file=sys.stderr)
                return 1
            answers.append(workloads.answer(req, result))
        out[workload] = answers
        print(f"{workload}: {len(answers)} answers")
    (run.HERE / "reference.json").write_text(json.dumps(out, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
