"""Shared fixtures for the experiment-regeneration harness.

Each ``bench_eXX_*.py`` module regenerates one paper artefact (figure,
equation, worked example, or resource table — see EXPERIMENTS.md) and
asserts its qualitative shape; the ``benchmark`` fixture additionally
times the central computation so regressions stay visible.

The scalar reference implementations the speedup columns compare against
live on the test side (``tests/reference_engine.py``); this conftest puts
``tests/`` on ``sys.path`` so the benchmarks import them.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))


def print_header(title: str) -> None:
    bar = "=" * len(title)
    print(f"\n{bar}\n{title}\n{bar}")
