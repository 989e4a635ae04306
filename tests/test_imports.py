"""What `import moa.cli` loads: the CLI never uses verify, dyadics, kron,
permute or the vectorized float writer, and only a threaded plan run needs
concurrent.futures, so a fresh import leaves them out, and the package still
exports every name through first-use loading."""

from __future__ import annotations

import os
import subprocess
import sys

from moa import cli
from moa.verify import SUITES

CHECK = """
import sys
import moa.cli

deferred = [
    "moa.floatfmt",
    "moa.verify",
    "moa.dyadics",
    "moa.kron",
    "moa.permute",
    "concurrent.futures",
]
assert [m for m in deferred if m in sys.modules] == [], sorted(sys.modules)

import moa

missing = [name for name in moa.__all__ if getattr(moa, name, None) is None]
assert missing == [], missing
assert set(moa.__all__) <= set(dir(moa))
from moa import builtin_env, dyad, multi_kron, transpose_general

import moa.floatfmt as f

assert f._powers.cache_info().currsize == 0 and f._text_tables.cache_info().currsize == 0
"""


def test_import_of_the_cli_defers_what_it_never_uses():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", CHECK], check=True, env=env)


def test_the_parser_names_every_verify_suite():
    assert cli.SUITE_NAMES == tuple(SUITES)
