"""Print how much work the scalar kernel does in ``genform check all``.

Runs ``genform.cli.main`` in this process, with ``src`` first on
``sys.path``: ``check all --trials 100 --seed 7`` for dims 1-4, with its
stdout captured.  Before the runs it wraps ``scalars._sum_products``, the
fused kernel, in every module of genform that binds it, so each call is
counted whichever module makes it.  It prints one line ``dim calls products
term_products`` per run:

- ``calls`` is the number of kernel calls;
- ``products`` is the number of products those calls were given;
- ``term_products`` is the sum over the products of |a| times the number of
  terms of b, for a product ``(sign, a, b)``, or of d_i b, for a derivative
  product ``(sign, a, b, i)``: the number of monomial products the kernel
  multiplies and accumulates.

Unlike a timing, each count is the same on every run and every host, so a
change that must not add kernel work shows it as an empty diff between this
tool's output before and after the change.  It needs nothing beyond the
standard library and genform.  Run from the repository root::

    python tools/kernel_counts.py
"""

import contextlib
import io
import sys
from pathlib import Path


def term_products(product: tuple) -> int:
    """|a| times the number of terms of b, or of d_i b for a derivative product."""
    a, b, *i = product[1:]
    terms = b._num if not i else [e for e in b._num if e[i[0]]]
    return len(a._num) * len(terms)


def main() -> None:
    sys.path.insert(0, str(Path("src").resolve()))
    from genform import scalars
    from genform.cli import main as genform_main

    kernel = scalars._sum_products
    counts = [0, 0, 0]  # the current run's calls, products and term products

    def counted(chart, products):
        counts[0] += 1
        counts[1] += len(products)
        counts[2] += sum(map(term_products, products))
        return kernel(chart, products)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "genform" and getattr(module, "_sum_products", None) is kernel:
            module._sum_products = counted
    for dim in range(1, 5):
        counts[:] = [0, 0, 0]
        with contextlib.redirect_stdout(io.StringIO()):
            genform_main(["check", "all", "--dim", str(dim), "--trials", "100", "--seed", "7"])
        print(dim, *counts, flush=True)


if __name__ == "__main__":
    main()
