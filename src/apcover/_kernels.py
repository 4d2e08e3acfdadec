"""The names the benchmark harness still imports from here.

`witness_sweep` lives in `witness` and `uncovered_scan` in `oracle`;
BACKEND names the only backend there is.  perfbench/worker.py imports
this module and reads BACKEND on every run, so the file is deleted by
the benchmark change that drops those reads (ROADMAP item 1).
"""

from .oracle import uncovered_scan
from .witness import witness_sweep

BACKEND = "python"
