"""Print the sha256 of the stdout of ``genform check all --trials 100`` per dim and seed.

Runs ``genform.cli.main`` in this process, with ``src`` first on
``sys.path``, for dims 1-4 and seeds 0-9, and prints one line
``dim seed status sha256`` per run, where ``status`` is the exit status.  A
change that must keep the check output byte-identical shows it as an empty
diff between this tool's output before and after the change.  It needs
nothing beyond the standard library.  Run from the repository root::

    python tools/check_digests.py
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path("src").resolve()))
    from genform.cli import main as genform_main

    for dim in range(1, 5):
        for seed in range(10):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = genform_main(["check", "all", "--dim", str(dim),
                                       "--trials", "100", "--seed", str(seed)])
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            print(f"{dim} {seed} {status} {digest}", flush=True)


if __name__ == "__main__":
    main()
