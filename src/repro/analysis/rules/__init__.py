"""Built-in lint rules; importing this package populates the registry.

Rule families (ids are ``FAMILY###``), one module each:

- ``DET`` — determinism: no unordered iteration, unseeded RNGs, or
  wall-clock reads where schedule bytes are decided,
- ``FLT`` — float discipline: no exact ``==``/``!=`` on float expressions
  outside the audited tolerance helpers,
- ``OBS`` — obs-off discipline: hot-path emissions behind ``OBS.on``,
- ``PUR`` — worker purity: ProcessPool entry points stay deterministic
  and picklable,
- ``TXN`` — transaction safety for the link-schedule undo log
  (``TXN1xx`` are flow-sensitive, built on the CFG/dataflow framework).

See ``docs/static_analysis.md`` for each rule's paper/PR rationale and how
to add a new one.
"""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401  (import registers the rules)
    determinism,
    floats,
    obsguard,
    purity,
    transactions,
)

#: Family prefix -> human name, for ``repro lint --list-rules`` grouping.
FAMILIES: dict[str, str] = {
    "DET": "determinism",
    "FLT": "float discipline",
    "OBS": "observability guards",
    "PUR": "worker purity",
    "TXN": "transaction safety",
}
