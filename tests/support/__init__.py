"""Test-side second implementations (oracles) and helpers.

Nothing under ``src/`` imports this package.  The tests and the
``benchmarks/test_*.py`` benches import it as ``support``: ``tests/`` is
on ``sys.path`` through ``tests/conftest.py``, and ``benchmarks/conftest.py``
appends it.

* :mod:`support.kernel_reference` — host-side kernel results every
  simulator must reproduce;
* :mod:`support.structure_reference` — the sort-based structural profile;
* :mod:`support.partition_reference` — the scalar LDG and BFS-grow
  partitioners the vectorized ones must match bit for bit;
* :mod:`support.graph_stats` — degree and skew statistics of the dataset
  stand-ins;
* :mod:`support.traversal` — BFS parents and weak components;
* :mod:`support.file_faults` — torn writes and flipped bytes for the
  journal and cache recovery tests;
* :mod:`support.spans` — a timing-free view of a span batch;
* :mod:`support.metis` — invariant checks of the METIS working graph.
"""
