"""Repository tooling: CI gates, run directly from the repository root.

* :mod:`tools.simlint` — the determinism lint pass over the simulator core
  (``python -m tools.simlint src tools``);
* :mod:`tools.check_docs` — the documentation gate (markdown link check +
  README quickstart execution; ``PYTHONPATH=src python tools/check_docs.py``).

:mod:`tools.ledger` prints the committed ``BENCH_<n>.json`` series, median
and spread per workload and end-to-end metric
(``python tools/ledger.py BENCH_*.json``); :mod:`tools.linecov` lists the
``src/`` functions and lines a command never executes
(``python -m tools.linecov run --data .linecov -- <command>``, then
``report``).  Neither gates anything.
"""
