"""Print digests of ``genform check all`` per dim and seed.

Runs ``genform.cli.main`` in this process, with ``src`` first on
``sys.path``: ``--trials 100`` for dims 1-4 and seeds 0-9, then
``--trials 10`` for dims 5-8 and seeds 0-1, so every dimension ``check``
accepts is run.  It prints one line ``dim seed status stdout_sha256
trials_sha256`` per run, where ``status`` is the exit status.  A passing run
prints only pass lines, so before the runs every identity's check is wrapped
to hash what it saw: each trial's inputs, rendered as a session, and both
sides of each of its equations.
``trials_sha256`` is that hash, so it changes with any drawn input or
computed value.

After the check lines it prints one line ``session dim seed sha256`` for
dims 1-4 and seeds 0-9.  Each hashes the round trip parse -> render -> parse
-> render of a session text of about 700 bytes built from the public
generators, as the benchmark's session workload builds its texts: literal
scalars, pair forms and pair vectors, then one small power of the first
scalar.  The hash covers both renders.

A change that must keep the check runs and the session round trips
byte-identical shows it as an empty diff between this tool's output before
and after the change.  It needs nothing beyond the standard library and
genform's public names.  Run from the repository root::

    python tools/check_digests.py
"""

import contextlib
import dataclasses
import hashlib
import io
import random
import sys
from pathlib import Path

SESSION_BYTES = 700


def session_text(genform, dim: int, seed: int) -> str:
    """A session text of about SESSION_BYTES bytes on a ``dim``-coordinate chart:
    literal definitions drawn by the generators, then ``p``, a power of ``s0 - 1``."""
    rng = random.Random(f"session:{dim}:{seed}")
    cfg = genform.GenConfig(seed=seed, dimension=dim, max_poly_degree=4, max_terms=6)
    chart = genform.default_chart(cfg)
    defs = {"s0": genform.gen_scalar(cfg, 0, chart)}
    position = 1
    while len(genform.render_session(chart, defs)) < SESSION_BYTES - 100:
        kind = position % 3
        if kind == 0:
            defs[f"s{position}"] = genform.gen_scalar(cfg, position, chart)
        elif kind == 1:
            degree = rng.randrange(-1, dim + 1)
            defs[f"A{position}"] = genform.gen_gform(cfg, degree, position, chart)
        else:
            defs[f"W{position}"] = genform.gen_gvector(cfg, position, chart)
        position += 1
    return genform.render_session(chart, defs) + f"p = (s0 - 1)^{rng.choice((2, 3, 4))}\n"


def main() -> None:
    sys.path.insert(0, str(Path("src").resolve()))
    import genform
    from genform.cli import main as genform_main

    trials = hashlib.sha256()  # the current run's; replaced before each run

    def recording(check):
        def record(chart, **env):
            equations = check(chart, **env)
            trials.update(genform.render_session(chart, env).encode())
            for lhs, rhs in equations:
                trials.update(f"{lhs}\n{rhs}\n".encode())
            return equations
        return record

    for name, ident in genform.IDENTITIES.items():
        genform.IDENTITIES[name] = dataclasses.replace(ident, check=recording(ident.check))
    runs = [(dim, seed, 100) for dim in range(1, 5) for seed in range(10)]
    runs += [(dim, seed, 10) for dim in range(5, 9) for seed in range(2)]
    for dim, seed, count in runs:
        trials = hashlib.sha256()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = genform_main(["check", "all", "--dim", str(dim),
                                   "--trials", str(count), "--seed", str(seed)])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(f"{dim} {seed} {status} {digest} {trials.hexdigest()}", flush=True)
    for dim in range(1, 5):
        for seed in range(10):
            rendered = genform.parse_session(session_text(genform, dim, seed)).render()
            again = genform.parse_session(rendered).render()
            digest = hashlib.sha256((rendered + again).encode()).hexdigest()
            print(f"session {dim} {seed} {digest}", flush=True)


if __name__ == "__main__":
    main()
