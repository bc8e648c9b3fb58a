"""AOT build of the batch-evaluation kernel (``repro.core._kernel_c``).

Compiles the committed C translation of the hot loop (``_kernel.c``, the
twin of the pure-Python reference in :mod:`repro.core._kernel`) into an
optional extension module using cffi's out-of-line API mode, and writes a
provenance sidecar (``_kernel_c_meta.json``) recording the toolchain and
the source digests of *both* kernels so every BENCH record can say exactly
which arithmetic produced it.

The repo never requires this build: :mod:`repro.core.kernelreg` falls back
to the reference kernel whenever the extension is absent, and every test
passes either way.  Three ways to build:

- ``python -m repro.core.kernel_build`` — explicit build (what CI's
  compiled-kernel job runs); exits non-zero when cffi or a C compiler is
  missing.
- ``python -m repro.core.kernel_build --optional`` — best-effort: report
  and exit 0 when the toolchain is absent (for dev bootstrap scripts).
- ``REPRO_BUILD_KERNEL=1 pip install -e .[compiled]`` — the ``setup.py``
  hook delegates here via cffi's ``cffi_modules``.

The module-level ``ffibuilder`` is the cffi entry point the setup hook
references (``kernel_build.py:ffibuilder``).  Why cffi + C instead of the
mypyc/Cython route: those compilers are *not* part of the baked toolchain
this repo targets, while cffi + gcc are; the bit-identity contract is held
by the differential suite and checksum gates rather than by sharing source
text, and ``_kernel.c`` is kept a line-for-line translation of
``_kernel.py`` to keep the diff reviewable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import sysconfig
from datetime import datetime, timezone
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_SOURCE_C = _HERE / "_kernel.c"
_SOURCE_PY = _HERE / "_kernel.py"
_META = _HERE / "_kernel_c_meta.json"

#: Exported C API (mirrored by the definitions in ``_kernel.c``).
CDEF = """
typedef struct kstate kstate;
kstate *ks_new(int n, int n_procs, const double *exec_flat,
               const int *edge_src, const double *edge_cost,
               const int *edge_off, int cut_through, double hop);
void ks_free(kstate *ks);
int ks_set_plan(kstate *ks, int pair, int n_links, const int *lids,
                const double *speeds);
double ks_evaluate(kstate *ks, const int *cand, int *out_divergence,
                   int *out_missing);
int ks_max_lid(kstate *ks);
int ks_link_len(kstate *ks, int lid);
void ks_read_link(kstate *ks, int lid, double *starts_out,
                  double *finishes_out);
void ks_read_proc(kstate *ks, double *out);
double ks_makespan(kstate *ks);
"""


def _make_ffibuilder():  # type: ignore[no-untyped-def]  # cffi has no stubs
    """The cffi FFI builder for the kernel extension (lazy cffi import)."""
    from cffi import FFI

    builder = FFI()
    builder.cdef(CDEF)
    builder.set_source(
        "repro.core._kernel_c",
        _SOURCE_C.read_text(encoding="utf-8"),
        # Bit-identity requires conforming double arithmetic: default SSE2
        # on x86-64, explicitly no -ffast-math / unsafe reassociation.
        extra_compile_args=["-O2"],
    )
    return builder


try:  # referenced by setup.py's cffi_modules hook
    ffibuilder = _make_ffibuilder()
except ImportError:  # pragma: no cover - import-time probe only
    ffibuilder = None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _compiler_banner() -> str:
    """First line of the configured C compiler's --version, best-effort."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return cc
    out = proc.stdout.splitlines()
    return out[0] if out else cc


def write_meta() -> dict[str, object]:
    """Write the build-provenance sidecar next to the extension."""
    import cffi

    meta: dict[str, object] = {
        "variant": "compiled",
        "builder": f"cffi {cffi.__version__}",
        "compiler": _compiler_banner(),
        "python": sys.version.split()[0],
        "platform": sysconfig.get_platform(),
        "source_sha256": _sha256(_SOURCE_C),
        "reference_sha256": _sha256(_SOURCE_PY),
        # Build tooling, not scheduling: the timestamp never reaches a
        # scheduling decision.
        "built_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),  # repro-lint: disable=DET003 (build metadata)
    }
    _META.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", "utf-8")
    return meta


def build(verbose: bool = False) -> Path:
    """Compile the extension in place (under ``src/``); returns the path."""
    if ffibuilder is None:
        raise RuntimeError("cffi is not installed; pip install -e .[compiled]")
    # "repro.core._kernel_c" resolves relative to tmpdir, so the built
    # module lands next to this file when tmpdir is the src/ root.
    src_root = _HERE.parent.parent
    out = ffibuilder.compile(tmpdir=str(src_root), verbose=verbose)
    write_meta()
    return Path(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.kernel_build",
        description="AOT-build the compiled batch-evaluation kernel.",
    )
    parser.add_argument(
        "--optional",
        action="store_true",
        help="exit 0 (with a notice) when the toolchain is unavailable",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        out = build(verbose=args.verbose)
    except Exception as exc:  # noqa: BLE001 - single CLI failure funnel
        if args.optional:
            print(f"kernel build skipped: {exc}")
            return 0
        print(f"kernel build failed: {exc}", file=sys.stderr)
        return 1
    print(f"built {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
