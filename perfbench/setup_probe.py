"""Set-up time of gapmodel's CLI in a fresh interpreter.

Prints the seconds from before ``import gapmodel.cli`` to a built parser,
with a pure-Python host reading taken just before and just after. Nothing
else is imported first; hostref imports only ``math`` and ``time``.
"""

import time

from hostref import python_loop_seconds

before = python_loop_seconds()
t0 = time.perf_counter()
import gapmodel.cli  # noqa: E402

gapmodel.cli.build_parser()
seconds = time.perf_counter() - t0
print(seconds, before, python_loop_seconds())
