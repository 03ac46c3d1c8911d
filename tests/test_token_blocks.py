"""Each module of the package stays inside its power-of-two token block.

A process that imports pademor without cached bytecode compiles every
module, and the parser's token buffer grows in powers of two: a module that
crosses one adds about 0.1 MB to the peak RSS of every benchmark workload
(`peak_rss_mb`), whatever code runs.  A module that must grow past its block
raises its entry here, and says so with the benchmark figures it moves.

Below its block a module is not free either: peak_rss_mb follows each
module's compile peak.  The modules compiled after NumPy is imported
(pade first, then hilbert, numerics, poly, modal and cli) compile on top
of NumPy's memory, so the largest of their compile peaks sets the import's
RSS peak; harness, compiled before NumPy loads, stays below it.  A version
of the stacked fast denominators that grew pade.py from 2,947 to 3,901
tokens, inside its 4,096 block, raised the compile() peak of pade.py from
1,152 to 1,408 KB, the after-import ru_maxrss by 0.2-0.35 MB, and
peak_rss_mb by 0.25-0.27 MB on synthetic_dense_grid, 0.14-0.21 MB on
helmholtz_reference and 0.60-0.65 MB on highorder_poles (bound 0.1 MB).
So code is moved or deleted rather than added beside, and a module that
grows is measured, not assumed free.

The lockstep Jacobi stack (then numerics.hermitian_eigensystems) took
numerics.py from 2,016 to 2,605 tokens, past its 2,048 block, with
pade._scale_exponent and pade._scaled moved in beside it (now
numerics.scale_exponent and numerics.scaled); its compile() peak went from
675 to 956 KB, still below that of pade.py (1,086 KB before, 1,085 KB
after), so the import's peak did not move: the after-import ru_maxrss
medians of `import pademor, pademor.cli` over 40 fresh
PYTHONDONTWRITEBYTECODE=1 processes each, alternated, read 29,160 KB before
and 29,128 KB after, within their 28.9-29.4 MB spread.

Which compile sets that peak follows from the import order as well as
from the sizes.  numerics compiles after pade and hilbert, on the memory
their code takes, and so sets the peak although its own compile() peak
is below that of pade.py: with PYTHONDONTWRITEBYTECODE=1, a prototype of
the array root passes that grew numerics.py by 300 tokens (compile peak
1,061 to 1,148 KB) raised the after-import ru_maxrss median by 124 KB
(20 fresh processes each), and one that grew pade.py by 289 tokens (1,127
to 1,206 KB) by 66 KB.  The passes were then placed so that numerics.py
grew by 149 tokens (1,108 KB) and the grouping they share went to errors,
compiled before NumPy loads: with pade.py at 3,380 tokens (1,181 KB) the
median moved by 0-4 KB (24 processes each, two runs), at 3,429 tokens
(1,205 KB) by 124 KB, and at the 3,337 tokens (1,173 KB) kept by 36 KB,
inside the runs' 110 KB quartile distance.

The array pass that spells CSV float cells (harness._cell_chunk and its
tables) took harness.py from 3,862 to 5,171 tokens, past its 4,096 block,
and its compile() peak from 1,387 to 1,968 KB.  It stays in harness, the
one module that spells CSV cells (tests/test_io_boundary.py).  harness
compiles before NumPy loads, and the after-import ru_maxrss medians of
`import pademor, pademor.cli` over 40 fresh PYTHONDONTWRITEBYTECODE=1
processes per side, alternated, read 29,212 KB before and 29,246 KB after
(quartiles 29,184-29,248 and 29,206-29,294 KB), and 29,224 and 29,218 KB
in a second set.  peak_rss_mb (BENCH_40.json, 10 pairs) moved by +0.20 MB
on helmholtz_reference, +0.09 MB on highorder_poles and +0.95 MB on
synthetic_dense_grid, the one workload whose CSVs take the array pass:
the NumPy code its first use maps, its tables and its temporaries.
"""

import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pademor"

# The power of two above each module's token count when the guard was added.
TOKEN_BLOCKS = {
    "__init__": 64,
    "cli": 512,
    "errors": 512,
    "harness": 8192,
    "hilbert": 1024,
    "modal": 2048,
    "numerics": 4096,
    "pade": 4096,
    "poly": 1024,
}


def test_every_module_has_a_block():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(TOKEN_BLOCKS)


@pytest.mark.parametrize("module", sorted(TOKEN_BLOCKS))
def test_token_count_below_block(module):
    with open(PACKAGE / f"{module}.py", "rb") as fh:
        count = sum(1 for _ in tokenize.tokenize(fh.readline))
    assert count < TOKEN_BLOCKS[module], f"{module}.py has {count} tokens"
