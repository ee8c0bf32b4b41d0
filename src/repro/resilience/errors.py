"""The typed error hierarchy and the process exit-code contract.

Every failure that crosses the CLI boundary is classified: either it is
a :class:`ReproError` subclass carrying a stable ``code`` (for logs and
the ``run.abort`` ledger record) and an ``exit_code``, or the boundary
wraps it as ``REPRO-INTERNAL``.  A user-facing run therefore never ends
in a raw traceback — the chaos CI job asserts exactly that.

Exit codes
----------
===== ================= ==============================================
exit  code              meaning
===== ================= ==============================================
0     —                 success (possibly *degraded*: budget ran out
                        or the run was interrupted; the module is
                        still valid, verified best-so-far)
1     —                 behaviour changed (simulator disagreement)
2     REPRO-VERIFY      translation validation failed and recovery
                        retries were exhausted
3     REPRO-CKPT        checkpoint file missing, corrupt, or from an
                        incompatible schema
4     REPRO-FAULT       an armed fault-injection point fired
5     REPRO-IMAGE       input image malformed (undecodable, truncated,
                        dangling references) — the loader rejected it
5     REPRO-COMPILE     mini-C source rejected by the compiler
70    REPRO-INTERNAL    unclassified internal error
130   REPRO-INTERRUPT   interrupted before any round could complete
===== ================= ==============================================
"""

from __future__ import annotations

from typing import Dict

EXIT_OK = 0
EXIT_BEHAVIOUR = 1
EXIT_VERIFY = 2
EXIT_CHECKPOINT = 3
EXIT_FAULT = 4
EXIT_INPUT = 5
EXIT_INTERNAL = 70
EXIT_INTERRUPT = 130


class ReproError(RuntimeError):
    """Base class of all typed, code-carrying pipeline errors."""

    code: str = "REPRO-INTERNAL"
    exit_code: int = EXIT_INTERNAL


class CheckpointError(ReproError):
    """A checkpoint could not be loaded (missing, corrupt, bad schema)."""

    code = "REPRO-CKPT"
    exit_code = EXIT_CHECKPOINT


class FaultInjected(ReproError):
    """An armed fault point fired (chaos testing only; see faultinject)."""

    code = "REPRO-FAULT"
    exit_code = EXIT_FAULT


#: code -> (exit code, description) — the documented contract, used by
#: the README/DESIGN tables and asserted by the resilience tests.
ERROR_CODES: Dict[str, tuple] = {
    "REPRO-VERIFY": (EXIT_VERIFY, "translation validation failed; "
                                  "recovery retries exhausted"),
    "REPRO-CKPT": (EXIT_CHECKPOINT, "checkpoint missing/corrupt/"
                                    "incompatible"),
    "REPRO-FAULT": (EXIT_FAULT, "armed fault-injection point fired"),
    "REPRO-IMAGE": (EXIT_INPUT, "input image malformed; the loader "
                                "rejected it"),
    "REPRO-COMPILE": (EXIT_INPUT, "mini-C source rejected by the "
                                  "compiler"),
    "REPRO-INTERNAL": (EXIT_INTERNAL, "unclassified internal error"),
    "REPRO-INTERRUPT": (EXIT_INTERRUPT, "interrupted before any round "
                                        "completed"),
}
