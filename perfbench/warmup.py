"""Set-up probe: import besselcmc from the checkout in a fresh process and
run one tiny operation of a workload.

    python3 perfbench/warmup.py <workload> <r>

run.py times this whole process; that is the benchmark's setup_s.
"""

import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402  (imports besselcmc)

with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as scratch:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # coarse grids trip the Sym-defect warning
        WORKLOADS[sys.argv[1]].call(float(sys.argv[2]), True, Path(scratch))
