"""Static analysis & verification layer.

Two cooperating sub-systems guard the toolchain's correctness contracts:

* :mod:`repro.analysis.verify` — runtime IR verifiers: per-artifact
  structural invariant checkers the pass manager interposes between
  pipeline stages (``CompileOptions.verify`` / ``--verify`` /
  ``REPRO_VERIFY=1``) and the cache/store layers run on loads, raising a
  typed :class:`~repro.errors.VerificationError`.
* :mod:`repro.analysis.lint` — a static determinism & concurrency linter
  (``repro lint``) with AST rules for the hazards that break the
  bit-identity contract: unseeded RNG, unsorted set iteration on the
  deterministic path, impure fingerprints, shared-state mutation in pool
  workers, and untyped raise-sites.  Import it as
  ``repro.analysis.lint``: this package does not, so a compile never loads
  the linter.
"""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".verify": (
        "ARTIFACT_VERIFIERS",
        "VERIFY_ENV",
        "verification_enabled",
        "verify_artifact",
        "verify_artifacts",
    ),
})

__all__ = [
    "VERIFY_ENV",
    "ARTIFACT_VERIFIERS",
    "verification_enabled",
    "verify_artifact",
    "verify_artifacts",
]
