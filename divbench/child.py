"""Benchmark child process: set up divgap, then run one workload.

Usage: child.py --setup-only
       child.py --workload W --seed N --seconds S --trace 0|1

Set-up ends when divgap.cli is imported and its parser is built; the child
prints that moment on CLOCK_MONOTONIC, which the parent shares, so the
parent can time set-up from spawn. Nothing else is imported before it.
"""

import sys
import time


def main() -> None:
    import divgap.cli

    divgap.cli.build_parser()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if sys.argv[1:] == ["--setup-only"]:
        print(f'{{"ready": {ready!r}}}')
        return
    import measure

    measure.main(divgap.cli, ready, sys.argv[1:])


if __name__ == "__main__":
    main()
