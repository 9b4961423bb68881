"""Print the complete certificate of P1-P17 at dims 2 and 3.

``tests/test_certificate.py`` gives the argument: each identity's residual
is multilinear in its slots' coefficient functions, with constant
coefficients and a low degree in k, so it vanishes on every input if and
only if it vanishes on every tuple of single-component basis inputs whose
coefficient is one monomial of degree at most the identity's derivative
order, at k = 0, 1 and -2.  That test runs the certificate at dim 1; this
tool runs it at dims 2 and 3 (114,900 and 1,745,616 tuples), with the
test's own ``KS``, ``basis`` and ``tuples`` through its
``certificate_failures``.  It puts ``src`` and ``tests`` first on
``sys.path`` and prints one line ``dim name tuples failures`` per identity,
then one ``dim all tuples failures`` line per dim.  Each failing tuple
follows its identity's line as a re-parseable session and a blank line.
Every count is the same on every run.  Run from the repository root::

    python tools/certificate.py
"""

import sys
from pathlib import Path


def main() -> None:
    sys.path[:0] = [str(Path("src").resolve()), str(Path("tests").resolve())]
    from genform import IDENTITIES
    from test_certificate import certificate_failures

    for dim in (2, 3):
        total = [0, 0]
        for name in sorted(IDENTITIES, key=lambda name: int(name[1:])):
            count, failures = certificate_failures(name, dim)
            print(dim, name, count, len(failures), flush=True)
            for session in failures:
                print(session, flush=True)
            total[0] += count
            total[1] += len(failures)
        print(dim, "all", *total, flush=True)


if __name__ == "__main__":
    main()
