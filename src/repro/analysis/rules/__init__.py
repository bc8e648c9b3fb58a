"""Built-in lint rules; importing this package populates the registry.

Rule families (ids are ``FAMILY###``), one module each:

- ``DET`` — determinism: no unordered iteration, unseeded RNGs, or
  wall-clock reads where schedule bytes are decided,
- ``FLT`` — float discipline: no exact ``==``/``!=`` on float expressions
  outside the audited tolerance helpers,
- ``OBS`` — observability: run-ledger files written only through
  ``repro.obs.runlog.append`` (the ``OBS.on`` guard on emissions is
  checked by running the code, in ``tests/test_perf_equivalence.py``),
- ``PUR`` — worker purity: ProcessPool entry points stay deterministic
  and picklable,
- ``TXN`` — transaction safety: only ``linksched/state.py`` touches the
  containers its undo log keeps consistent.

See ``docs/static_analysis.md`` for each rule's paper/PR rationale and how
to add a new one.
"""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401  (import registers the rules)
    determinism,
    floats,
    ledger,
    purity,
    transactions,
)

#: Family prefix -> human name, for ``repro lint --list-rules`` grouping.
FAMILIES: dict[str, str] = {
    "DET": "determinism",
    "FLT": "float discipline",
    "OBS": "observability",
    "PUR": "worker purity",
    "TXN": "transaction safety",
}
