"""Set-up probe for ``setup_s``: a fresh interpreter imports noisylab, loads
and validates a config, builds the experiment (dataset generation, label
noise, model init), writes one line and exits.

    PYTHONPATH=src python3 perfbench/setup_child.py CONFIG_FILE
"""

import sys

from noisylab import config
from noisylab.training import build_experiment

build_experiment(config.load(sys.argv[1]))
print("built", flush=True)
