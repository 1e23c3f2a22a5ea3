"""``python -m repro.experiments`` — the experiment driver."""

import sys

from repro.experiments.benchrun import main

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
