"""The benchmark's own tests import the library from this checkout's ``src/``.

Run them from the repository root with ``python3 -m pytest perfbench``.
"""

from perfbench import use_source_tree

use_source_tree()
