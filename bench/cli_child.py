"""One CLI invocation with its set-up boundary marked.

    python3 cli_child.py MARKS_FILE <sde-longtime arguments...>

Runs `sde_longtime.cli.main` on the arguments and exits with its code, like
the `sde-longtime` script. It wraps `cli.build_problem` (one call per run) to
record in MARKS_FILE, as a CLOCK_MONOTONIC reading the parent can compare
with its own, when the problem was built; set-up is interpreter start,
import, parse_config and build_problem.
"""

import json
import sys
import time

from sde_longtime import cli

marks = {}
_build_problem = cli.build_problem


def build_problem(cfg):
    problem = _build_problem(cfg)
    marks["setup_done"] = time.monotonic()
    return problem


if __name__ == "__main__":
    cli.build_problem = build_problem
    code = cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump(marks, fh)
    sys.exit(code)
