"""Run the suite under the default ground-size cap, whatever the shell exports.

Some bases are built at collection time (parametrize lists) or in
module-scoped fixtures, before any per-test fixture runs, so the variable is
cleared once, when pytest loads this file.  Tests that need another cap set it
with `monkeypatch.setenv`, which restores the cleared state afterwards.
"""

import os

os.environ.pop("SJB_N_CAP", None)
