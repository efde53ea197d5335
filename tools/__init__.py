"""Repository tooling: CI gates runnable from one home.

Two entry points live here, both reachable through the ``repro lint``
dispatcher (see ``repro.cli``):

* :mod:`tools.simlint` — the determinism lint pass over the simulator core
  (``python -m tools.simlint src/`` or ``repro lint``);
* :mod:`tools.check_docs` — the documentation gate (markdown link check +
  README quickstart execution; ``repro lint --docs``).

:mod:`tools.ledger` prints the committed ``BENCH_<n>.json`` series, median
and spread per workload and end-to-end metric
(``python tools/ledger.py BENCH_*.json``); it gates nothing.
"""
